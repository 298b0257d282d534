package energy

import (
	"scalesim/internal/config"
	"scalesim/internal/systolic"
)

// RunProfile is everything the action counter needs to know about one
// layer's execution.
type RunProfile struct {
	Dataflow config.Dataflow
	R, C     int
	M, N, K  int
	// Cycles is the layer's execution cycles (including stalls when a
	// memory model ran).
	Cycles int64
	// Utilization is useful MACs / (PEs × Cycles).
	Utilization float64
	// Access is the word-granular SRAM traffic.
	Access systolic.LayerAccess
	// DRAMReads/DRAMWrites are main-memory words moved.
	DRAMReads, DRAMWrites int64
	// NoPHopWords is Σ (words × hops) over the package network.
	NoPHopWords int64
}

// repeatFraction models the fraction of SRAM accesses that hit an already
// open row buffer: a single contiguous stream re-reads a `rowSize`-word row
// (rowSize−1)/rowSize of the time; with s interleaved streams only
// bankSize of them can keep a row open.
func repeatFraction(streams, rowSize, bankSize int) float64 {
	if rowSize <= 1 || streams <= 0 {
		return 0
	}
	f := float64(rowSize-1) / float64(rowSize)
	if streams > bankSize {
		f *= float64(bankSize) / float64(streams)
	}
	return f
}

// streamCounts returns the number of concurrently interleaved address
// streams each SRAM sees under the dataflow (1 = contiguous within a
// cycle, tile-sized = per-lane strided streams).
func streamCounts(df config.Dataflow, r, c int) (ifmap, filter, ofmap int) {
	switch df {
	case config.OutputStationary:
		// A per-row streams (strided across rows), B contiguous per
		// cycle, output drain contiguous per cycle.
		return r, 1, 1
	case config.WeightStationary:
		// A contiguous per cycle, B filled row-contiguous once,
		// outputs contiguous per cycle.
		return 1, 1, 1
	case config.InputStationary:
		// A filled contiguous; B per-row strided streams; outputs
		// strided per column lane.
		return 1, r, c
	default:
		return 1, 1, 1
	}
}

// CountActions converts a run profile into Accelergy action counts using
// the paper's formulas:
//
//	MAC_random   = #PEs × cycles × utilization
//	MAC_constant = #PEs × cycles × (1 − utilization)   (MAC_gated when
//	               clock gating is enabled)
//	spad writes  = SRAM reads of the operand; spad reads = MAC count
//	psum spad    read = write = MAC count
//
// SRAM accesses split into random and repeated according to the row-size /
// bank-size repeated-access lookup.
func CountActions(p *RunProfile, ecfg *config.EnergyConfig) Counts {
	var ct Counts
	pes := int64(p.R) * int64(p.C)
	active := int64(float64(pes*p.Cycles)*p.Utilization + 0.5)
	idle := pes*p.Cycles - active
	if idle < 0 {
		idle = 0
	}
	ct.Add(CompMAC, ActMACRandom, active)
	if ecfg.ClockGating {
		ct.Add(CompMAC, ActMACGated, idle)
	} else {
		ct.Add(CompMAC, ActMACConstant, idle)
	}

	// Scratchpads inside the PEs.
	macs := active
	ct.Add(CompIfmapSpad, ActWrite, p.Access.Ifmap.Reads)
	ct.Add(CompIfmapSpad, ActRead, macs)
	ct.Add(CompWeightSpad, ActWrite, p.Access.Filter.Reads)
	ct.Add(CompWeightSpad, ActRead, macs)
	ct.Add(CompPsumSpad, ActWrite, macs)
	ct.Add(CompPsumSpad, ActRead, macs)

	// SRAM random/repeat split via the repeated-access lookup.
	rowSize, bankSize := ecfg.RowSize, ecfg.BankSize
	if rowSize <= 0 {
		rowSize = 16
	}
	if bankSize <= 0 {
		bankSize = 4
	}
	si, sf, so := streamCounts(p.Dataflow, p.R, p.C)
	split := func(comp Component, reads, writes int64, streams int) {
		fr := repeatFraction(streams, rowSize, bankSize)
		rr := int64(float64(reads) * fr)
		ct.Add(comp, ActReadRepeat, rr)
		ct.Add(comp, ActReadRandom, reads-rr)
		wr := int64(float64(writes) * fr)
		ct.Add(comp, ActWriteRepeat, wr)
		ct.Add(comp, ActWriteRandom, writes-wr)
	}
	split(CompIfmapSRAM, p.Access.Ifmap.Reads, p.Access.Ifmap.Writes, si)
	split(CompFilterSRAM, p.Access.Filter.Reads, p.Access.Filter.Writes, sf)
	split(CompOfmapSRAM, p.Access.Ofmap.Reads, p.Access.Ofmap.Writes, so)

	if ecfg.IncludeDRAM {
		ct.Add(CompDRAM, ActRead, p.DRAMReads)
		ct.Add(CompDRAM, ActWrite, p.DRAMWrites)
	}
	ct.Add(CompNoC, ActHop, p.NoPHopWords)
	return ct
}

// ProfileFromEstimate builds a RunProfile from a closed-form estimate,
// using compulsory DRAM traffic.
func ProfileFromEstimate(df config.Dataflow, est systolic.RunEstimate, m, n, k int) *RunProfile {
	acc := systolic.Access(df, est.R, est.C, m, n, k)
	return &RunProfile{
		Dataflow:    df,
		R:           est.R,
		C:           est.C,
		M:           m,
		N:           n,
		K:           k,
		Cycles:      est.ComputeCycles,
		Utilization: est.Utilization,
		Access:      acc,
		DRAMReads:   int64(m)*int64(k) + int64(k)*int64(n),
		DRAMWrites:  int64(m) * int64(n),
	}
}
