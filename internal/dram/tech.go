// Package dram is a cycle-accurate main-memory model standing in for
// Ramulator. It simulates a channel/rank/bank-group/bank hierarchy with
// per-technology timing parameters, an FR-FCFS open-row memory controller,
// finite request queues, periodic refresh and row-buffer hit/miss/conflict
// accounting, and reports the round-trip latency of every transaction.
//
// Time advances event by event (System.AdvanceTo, System.AdvanceUntilDequeue)
// or, for the reference oracle, one Tick per cycle; both are cycle-exact.
// Both read one legality rule per command, so the tests also check the
// issued commands against the DDR timing rules with a protocol checker
// that shares no code with the controller.
// The FR-FCFS pick is O(1) when its reorder window holds no row hit: each
// channel counts the window entries whose row is open in their bank.
package dram

import (
	"fmt"
	"strings"
)

// Tech holds the timing and geometry parameters of a DRAM technology.
// All timings are in memory-controller clock cycles.
type Tech struct {
	Name string

	// ClockMHz is the command-clock frequency (half the data rate for
	// double-data-rate parts).
	ClockMHz float64
	// BusWidthBits is the data-bus width per channel.
	BusWidthBits int
	// BurstLength is the number of data beats per column command.
	BurstLength int

	// Core timing constraints (cycles).
	CL    int // CAS (read) latency
	CWL   int // CAS write latency
	TRCD  int // ACT → column command
	TRP   int // PRE → ACT
	TRAS  int // ACT → PRE
	TRC   int // ACT → ACT, same bank
	TCCD  int // column command → column command, same bank
	TRRD  int // ACT → ACT, different banks
	TFAW  int // rolling window for 4 ACTs per rank
	TWR   int // end of write burst → PRE
	TWTR  int // end of write burst → read command
	TRTP  int // read → PRE
	TRFC  int // refresh cycle time
	TREFI int // refresh interval

	// Geometry.
	Ranks         int
	BankGroups    int
	BanksPerGroup int
	Rows          int // rows per bank
	Columns       int // columns per row (each column = one bus-width word)
}

// Banks returns the total banks per rank.
func (t *Tech) Banks() int { return t.BankGroups * t.BanksPerGroup }

// BurstBytes is the number of bytes transferred by one column command.
func (t *Tech) BurstBytes() int { return t.BusWidthBits / 8 * t.BurstLength }

// BurstCycles is the data-bus occupancy of one column command in
// command-clock cycles (two beats per cycle for DDR).
func (t *Tech) BurstCycles() int {
	bc := t.BurstLength / 2
	if bc < 1 {
		bc = 1
	}
	return bc
}

// RowBytes is the size of one DRAM row (page) in bytes.
func (t *Tech) RowBytes() int { return t.Columns * t.BusWidthBits / 8 }

// CapacityBytes is the capacity of one channel.
func (t *Tech) CapacityBytes() int64 {
	return int64(t.Ranks) * int64(t.Banks()) * int64(t.Rows) * int64(t.RowBytes())
}

// Validate reports the first malformed parameter.
func (t *Tech) Validate() error {
	if t.ClockMHz <= 0 {
		return fmt.Errorf("dram: %s: non-positive clock", t.Name)
	}
	if t.BusWidthBits <= 0 || t.BurstLength <= 0 {
		return fmt.Errorf("dram: %s: bad bus geometry", t.Name)
	}
	if t.Ranks <= 0 || t.BankGroups <= 0 || t.BanksPerGroup <= 0 || t.Rows <= 0 || t.Columns <= 0 {
		return fmt.Errorf("dram: %s: bad bank geometry", t.Name)
	}
	for _, v := range []struct {
		name string
		val  int
	}{{"CL", t.CL}, {"CWL", t.CWL}, {"tRCD", t.TRCD}, {"tRP", t.TRP}, {"tRAS", t.TRAS},
		{"tRC", t.TRC}, {"tCCD", t.TCCD}, {"tRRD", t.TRRD}, {"tFAW", t.TFAW},
		{"tWR", t.TWR}, {"tWTR", t.TWTR}, {"tRTP", t.TRTP}} {
		if v.val <= 0 {
			return fmt.Errorf("dram: %s: non-positive %s", t.Name, v.name)
		}
	}
	if t.TRC < t.TRAS+t.TRP {
		return fmt.Errorf("dram: %s: tRC < tRAS + tRP", t.Name)
	}
	return nil
}

// DDR3_1600 returns DDR3-1600 (11-11-11) timing, 4 Gb ×8 devices.
func DDR3_1600() Tech {
	return Tech{
		Name: "DDR3", ClockMHz: 800, BusWidthBits: 64, BurstLength: 8,
		CL: 11, CWL: 8, TRCD: 11, TRP: 11, TRAS: 28, TRC: 39,
		TCCD: 4, TRRD: 5, TFAW: 24, TWR: 12, TWTR: 6, TRTP: 6,
		TRFC: 208, TREFI: 6240,
		Ranks: 1, BankGroups: 1, BanksPerGroup: 8, Rows: 1 << 16, Columns: 1 << 10,
	}
}

// DDR4_2400 returns DDR4-2400 (17-17-17) timing, 4 Gb per channel — the
// configuration the paper's memory experiments use.
func DDR4_2400() Tech {
	return Tech{
		Name: "DDR4", ClockMHz: 1200, BusWidthBits: 64, BurstLength: 8,
		CL: 17, CWL: 12, TRCD: 17, TRP: 17, TRAS: 39, TRC: 56,
		TCCD: 6, TRRD: 6, TFAW: 26, TWR: 18, TWTR: 9, TRTP: 9,
		TRFC: 420, TREFI: 9360,
		Ranks: 1, BankGroups: 4, BanksPerGroup: 4, Rows: 1 << 15, Columns: 1 << 10,
	}
}

// LPDDR4_3200 returns LPDDR4-3200 timing.
func LPDDR4_3200() Tech {
	return Tech{
		Name: "LPDDR4", ClockMHz: 1600, BusWidthBits: 32, BurstLength: 16,
		CL: 28, CWL: 14, TRCD: 29, TRP: 34, TRAS: 68, TRC: 102,
		TCCD: 8, TRRD: 8, TFAW: 64, TWR: 29, TWTR: 16, TRTP: 12,
		TRFC: 448, TREFI: 6248,
		Ranks: 1, BankGroups: 1, BanksPerGroup: 8, Rows: 1 << 15, Columns: 1 << 10,
	}
}

// GDDR5_5000 returns GDDR5-class timing (1.25 GHz command clock).
func GDDR5_5000() Tech {
	return Tech{
		Name: "GDDR5", ClockMHz: 1250, BusWidthBits: 32, BurstLength: 8,
		CL: 18, CWL: 6, TRCD: 18, TRP: 18, TRAS: 40, TRC: 58,
		TCCD: 3, TRRD: 8, TFAW: 30, TWR: 15, TWTR: 8, TRTP: 3,
		TRFC: 130, TREFI: 4750,
		Ranks: 1, BankGroups: 4, BanksPerGroup: 4, Rows: 1 << 14, Columns: 1 << 10,
	}
}

// HBM2_2000 returns one HBM2 pseudo-channel: narrow bus, many banks,
// low-latency core timing.
func HBM2_2000() Tech {
	return Tech{
		Name: "HBM2", ClockMHz: 1000, BusWidthBits: 128, BurstLength: 4,
		CL: 14, CWL: 4, TRCD: 14, TRP: 14, TRAS: 34, TRC: 48,
		TCCD: 2, TRRD: 4, TFAW: 16, TWR: 16, TWTR: 8, TRTP: 5,
		TRFC: 260, TREFI: 3900,
		Ranks: 1, BankGroups: 4, BanksPerGroup: 4, Rows: 1 << 14, Columns: 1 << 6,
	}
}

// TechByName resolves a technology preset by (case-insensitive) name.
func TechByName(name string) (Tech, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "DDR3", "DDR3-1600", "DDR3_1600":
		return DDR3_1600(), nil
	case "", "DDR4", "DDR4-2400", "DDR4_2400":
		return DDR4_2400(), nil
	case "LPDDR4", "LPDDR4-3200", "LPDDR4_3200":
		return LPDDR4_3200(), nil
	case "GDDR5", "GDDR5-5000", "GDDR5_5000":
		return GDDR5_5000(), nil
	case "HBM", "HBM2", "HBM2-2000", "HBM2_2000":
		return HBM2_2000(), nil
	}
	return Tech{}, fmt.Errorf("dram: unknown technology %q", name)
}

// TechNames lists the available presets.
func TechNames() []string {
	return []string{"DDR3", "DDR4", "LPDDR4", "GDDR5", "HBM2"}
}
