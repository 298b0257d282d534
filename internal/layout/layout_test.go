package layout

import (
	"testing"
	"testing/quick"
)

func TestAnalyzerContiguousNoConflict(t *testing.T) {
	a, err := NewAnalyzer(Config{Banks: 8, PortsPerBank: 1, TotalBandwidth: 64})
	if err != nil {
		t.Fatal(err)
	}
	// 64 contiguous words = exactly one line across all banks.
	addrs := make([]int64, 64)
	for i := range addrs {
		addrs[i] = int64(i)
	}
	if got := a.GroupCycles(addrs); got != 1 {
		t.Errorf("contiguous line took %d cycles", got)
	}
}

func TestAnalyzerStridedConflicts(t *testing.T) {
	a, err := NewAnalyzer(Config{Banks: 8, PortsPerBank: 1, TotalBandwidth: 64})
	if err != nil {
		t.Fatal(err)
	}
	// 16 words strided by the line width: all in bank 0, distinct lines.
	addrs := make([]int64, 16)
	for i := range addrs {
		addrs[i] = int64(i) * 64
	}
	if got := a.GroupCycles(addrs); got != 16 {
		t.Errorf("16 same-bank lines took %d cycles, want 16", got)
	}
	// Two ports halve it.
	a2, _ := NewAnalyzer(Config{Banks: 8, PortsPerBank: 2, TotalBandwidth: 64})
	if got := a2.GroupCycles(addrs); got != 8 {
		t.Errorf("2 ports: %d cycles, want 8", got)
	}
}

func TestAnalyzerSlowdownSigns(t *testing.T) {
	// Banked access to a few words can beat the bandwidth model
	// (negative slowdown) and strided access must be non-negative worse.
	a, _ := NewAnalyzer(Config{Banks: 16, PortsPerBank: 2, TotalBandwidth: 64})
	// 128 contiguous words: bandwidth model needs 2 cycles, banked
	// layout serves 2 lines spread over 16 banks in 1 cycle.
	addrs := make([]int64, 128)
	for i := range addrs {
		addrs[i] = int64(i)
	}
	a.Observe(addrs)
	if sd := a.Slowdown(); sd >= 0 {
		t.Errorf("contiguous slowdown %f, want negative", sd)
	}

	b, _ := NewAnalyzer(Config{Banks: 1, PortsPerBank: 1, TotalBandwidth: 64})
	strided := make([]int64, 32)
	for i := range strided {
		strided[i] = int64(i) * 64
	}
	b.Observe(strided)
	if sd := b.Slowdown(); sd <= 0 {
		t.Errorf("single-bank strided slowdown %f, want positive", sd)
	}
}

func TestAnalyzerMoreBanksNeverWorseProperty(t *testing.T) {
	// Property: at fixed total bandwidth, doubling banks never increases
	// the group cycles for any address set.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 256 {
			raw = raw[:256]
		}
		addrs := make([]int64, len(raw))
		for i, v := range raw {
			addrs[i] = int64(v)
		}
		a1, _ := NewAnalyzer(Config{Banks: 2, PortsPerBank: 1, TotalBandwidth: 64})
		a2, _ := NewAnalyzer(Config{Banks: 16, PortsPerBank: 1, TotalBandwidth: 64})
		return a2.GroupCycles(addrs) <= a1.GroupCycles(addrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzerReset(t *testing.T) {
	a, _ := NewAnalyzer(Config{Banks: 4, PortsPerBank: 1, TotalBandwidth: 16})
	a.Observe([]int64{0, 1, 2, 3})
	if a.Groups != 1 {
		t.Fatal("observe not recorded")
	}
	a.Reset()
	if a.Groups != 0 || a.LayoutCycles != 0 || a.BaselineCycles != 0 {
		t.Error("reset incomplete")
	}
}
