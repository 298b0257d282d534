// Package energy is an Accelergy-style architecture-level energy estimator.
// An Energy Reference Table (ERT) assigns a per-action energy to every
// (component, action) pair; simulation produces action counts; energy is
// the inner product plus leakage integrated over cycles. Power and
// energy-delay product derive from the cycle count and clock frequency.
package energy

import "fmt"

// Component identifies an energy-bearing hardware block.
type Component string

// Components of the modeled accelerator.
const (
	CompMAC        Component = "mac"
	CompIfmapSpad  Component = "ifmap_spad"
	CompWeightSpad Component = "weights_spad"
	CompPsumSpad   Component = "psum_spad"
	CompIfmapSRAM  Component = "ifmap_sram"
	CompFilterSRAM Component = "filter_sram"
	CompOfmapSRAM  Component = "ofmap_sram"
	CompDRAM       Component = "dram"
	CompNoC        Component = "noc"
)

// Action identifies an action type within a component. Accelergy
// distinguishes repeated from random accesses because their energies can
// differ by more than 2×.
type Action string

// Action types.
const (
	ActMACRandom   Action = "mac_random"
	ActMACConstant Action = "mac_constant" // clocked, inputs unchanged
	ActMACGated    Action = "mac_gated"    // clock-gated
	ActRead        Action = "read"
	ActWrite       Action = "write"
	ActReadRandom  Action = "read_random"
	ActReadRepeat  Action = "read_repeat"
	ActWriteRandom Action = "write_random"
	ActWriteRepeat Action = "write_repeat"
	ActIdle        Action = "idle"
	ActAccess      Action = "access"
	ActHop         Action = "hop"
)

// ERT is the energy reference table: pJ per action instance.
type ERT struct {
	// Name tags the technology the numbers were drawn for.
	Name string
	// Entries maps component → action → energy (pJ).
	Entries map[Component]map[Action]float64
	// PELeakagePJPerCycle is static energy per PE per cycle (pJ);
	// Accelergy folds this into per-state unit energies, we keep it
	// explicit so array size × runtime drives leakage as in the paper.
	PELeakagePJPerCycle float64
	// PEGatedLeakFactor scales PE leakage under power gating.
	PEGatedLeakFactor float64
	// SRAMLeakagePJPerKBCycle is static energy per kB of on-chip SRAM
	// per cycle (pJ).
	SRAMLeakagePJPerKBCycle float64
}

// Default65nm returns the built-in ERT calibrated to published 65 nm
// numbers for Eyeriss-class designs (16-bit datapath): register-file
// scratchpads under 1 pJ, global-buffer SRAM ~12 pJ, DRAM ~180 pJ/word,
// MACs ~2 pJ. Repeated SRAM accesses (same row re-read) cost less than
// half a random access, per the paper.
func Default65nm() *ERT {
	return &ERT{
		Name: "65nm",
		Entries: map[Component]map[Action]float64{
			CompMAC: {
				ActMACRandom:   2.2,
				ActMACConstant: 1.1,
				ActMACGated:    0.12,
			},
			CompIfmapSpad:  {ActRead: 0.25, ActWrite: 0.30},
			CompWeightSpad: {ActRead: 0.25, ActWrite: 0.30},
			CompPsumSpad:   {ActRead: 0.30, ActWrite: 0.35},
			CompIfmapSRAM: {
				ActReadRandom: 12.0, ActReadRepeat: 5.0,
				ActWriteRandom: 13.0, ActWriteRepeat: 6.0,
				ActIdle: 0.0,
			},
			CompFilterSRAM: {
				ActReadRandom: 12.0, ActReadRepeat: 5.0,
				ActWriteRandom: 13.0, ActWriteRepeat: 6.0,
				ActIdle: 0.0,
			},
			CompOfmapSRAM: {
				ActReadRandom: 12.0, ActReadRepeat: 5.0,
				ActWriteRandom: 13.0, ActWriteRepeat: 6.0,
				ActIdle: 0.0,
			},
			CompDRAM: {ActRead: 180.0, ActWrite: 180.0, ActAccess: 180.0},
			CompNoC:  {ActHop: 0.8},
		},
		// Per-PE static + clock-distribution energy per clocked cycle.
		// Calibrated so that array-proportional energy dominates at low
		// utilization, reproducing the paper's finding that a 128×128
		// array burns more total energy than 32×32 despite finishing
		// 6–10× sooner (leakage × idle PEs).
		PELeakagePJPerCycle:     2.0,
		PEGatedLeakFactor:       0.30,
		SRAMLeakagePJPerKBCycle: 0.0008,
	}
}

// PnR65nm returns unit energies calibrated against place-and-route numbers
// for a small 65 nm macro (the paper's Table III validation): static power
// is a few percent of active power, unlike the runtime ERT above which
// deliberately folds clock-tree and pipeline overheads into the per-cycle
// static term. Use this table when comparing whole-array operating states
// against PnR measurements.
func PnR65nm() *ERT {
	e := Default65nm()
	e.Name = "65nm-pnr"
	e.Entries[CompMAC] = map[Action]float64{
		ActMACRandom:   3.0,
		ActMACConstant: 1.0,
		ActMACGated:    0.02,
	}
	e.PELeakagePJPerCycle = 0.12
	e.PEGatedLeakFactor = 0.33
	return e
}

// Energy returns the unit energy for (component, action) or an error when
// the table has no entry.
func (e *ERT) Energy(c Component, a Action) (float64, error) {
	acts, ok := e.Entries[c]
	if !ok {
		return 0, fmt.Errorf("energy: ERT %s has no component %q", e.Name, c)
	}
	v, ok := acts[a]
	if !ok {
		return 0, fmt.Errorf("energy: ERT %s component %q has no action %q", e.Name, c, a)
	}
	return v, nil
}

// Set installs or overrides one entry, enabling user-customized component
// descriptions as Accelergy allows.
func (e *ERT) Set(c Component, a Action, pj float64) {
	if e.Entries == nil {
		e.Entries = make(map[Component]map[Action]float64)
	}
	if e.Entries[c] == nil {
		e.Entries[c] = make(map[Action]float64)
	}
	e.Entries[c][a] = pj
}

// maxCounts is the number of (component, action) pairs CountActions can
// emit: two MAC states, six scratchpad accesses, four per SRAM, two DRAM
// directions and the NoC hop.
const maxCounts = 23

// Counts holds simulated action counts per (component, action): a fixed
// table of at most maxCounts entries, so a layer's counts live in one
// value, kept sorted by component, then action, so Estimate sums them in
// a fixed order without sorting. The zero value is an empty table.
type Counts struct {
	entries [maxCounts]actionCount
	n       int
}

type actionCount struct {
	c Component
	a Action
	n int64
}

// find returns the position of (c, a) in the sorted entries, or the
// position it would be inserted at.
func (ct *Counts) find(c Component, a Action) (int, bool) {
	for i := range ct.n {
		e := &ct.entries[i]
		if e.c < c || (e.c == c && e.a < a) {
			continue
		}
		return i, e.c == c && e.a == a
	}
	return ct.n, false
}

// Add increments (c, a) by n. It panics when (c, a) would be a distinct
// pair beyond the table's maxCounts.
func (ct *Counts) Add(c Component, a Action, n int64) {
	if n == 0 {
		return
	}
	i, ok := ct.find(c, a)
	if ok {
		ct.entries[i].n += n
		return
	}
	if ct.n == maxCounts {
		panic(fmt.Sprintf("energy: more than %d distinct (component, action) counts", maxCounts))
	}
	copy(ct.entries[i+1:ct.n+1], ct.entries[i:ct.n])
	ct.entries[i] = actionCount{c, a, n}
	ct.n++
}

// Get returns the count for (c, a).
func (ct *Counts) Get(c Component, a Action) int64 {
	if i, ok := ct.find(c, a); ok {
		return ct.entries[i].n
	}
	return 0
}
