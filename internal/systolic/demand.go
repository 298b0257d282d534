package systolic

import (
	"sync"

	"scalesim/internal/config"
)

// Operand address-space bases (word addresses), following the SCALE-Sim
// convention of disjoint regions per operand.
const (
	IfmapBase  int64 = 0
	FilterBase int64 = 1 << 30
	OfmapBase  int64 = 1 << 31
)

// Demand is the set of scratchpad accesses issued in one array cycle.
// Slices are reused between callbacks; consumers must copy what they keep.
type Demand struct {
	Cycle       int64
	IfmapReads  []int64
	FilterReads []int64
	OfmapWrites []int64
	OfmapReads  []int64 // partial-sum read-backs
}

func (d *Demand) reset(cycle int64) {
	d.Cycle = cycle
	d.IfmapReads = d.IfmapReads[:0]
	d.FilterReads = d.FilterReads[:0]
	d.OfmapWrites = d.OfmapWrites[:0]
	d.OfmapReads = d.OfmapReads[:0]
}

// Total returns the number of accesses in the cycle.
func (d *Demand) Total() int {
	return len(d.IfmapReads) + len(d.FilterReads) + len(d.OfmapWrites) + len(d.OfmapReads)
}

// DemandFunc consumes one cycle of demand. Returning false stops streaming.
type DemandFunc func(*Demand) bool

// demandPool recycles Demand structs (and their grown backing slices)
// across Materialize calls, so per-cycle consumers — trace writers, the
// Table IV baseline — do not churn the GC. Safe because the Demand
// contract already forbids consumers from retaining the slices.
var demandPool = sync.Pool{New: func() any { return new(Demand) }}

// Gemm describes the GEMM being streamed.
type Gemm struct {
	M, N, K int
}

// Stream invokes fn with the per-cycle demand of the GEMM on an R×C array
// under the dataflow: NewFoldSchedule followed by Materialize.
func Stream(df config.Dataflow, r, c int, g Gemm, fn DemandFunc) error {
	fs, err := NewFoldSchedule(df, r, c, g)
	if err != nil {
		return err
	}
	fs.Materialize(fn)
	return nil
}

// StreamStats summarizes a GEMM's demand stream: its span, the element
// volume per channel and the largest single emission.
type StreamStats struct {
	Cycles       int64 // last demanded cycle + 1
	IfmapReads   int64
	FilterReads  int64
	OfmapWrites  int64
	OfmapReads   int64
	PeakPerCycle int
}
