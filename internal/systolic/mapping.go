// Package systolic implements the SCALE-Sim v2 core: mapping GEMMs onto an
// R×C systolic array under the three classic dataflows, closed-form
// compute-cycle accounting, per-operand SRAM access counting and the fold
// schedule (FoldSchedule) — the one walk of a GEMM's folds, which
// Materialize expands into the cycle-accurate demand stream.
//
// A layer lowered to the GEMM O(M×N) = A(M×K) · B(K×N) maps onto the array
// with two spatial dimensions (Sr on rows, Sc on columns) and one temporal
// dimension T:
//
//	output stationary: Sr=M, Sc=N, T=K (outputs pinned to PEs)
//	weight stationary: Sr=K, Sc=N, T=M (filter tile pinned)
//	input stationary:  Sr=K, Sc=M, T=N (input tile pinned, transposed)
//
// Note: the paper's Table II prints the IS and WS rows as (K,N,M) and
// (K,M,N); that assignment makes IS pin the weight-shaped (K×N) operand and
// WS pin the input-shaped (K×M) operand, i.e. the two labels are swapped
// relative to their own definitions. We implement the operand-consistent
// mapping above (which also matches the SCALE-Sim v2 code for WS) and note
// the discrepancy in EXPERIMENTS.md; all Table II-derived magnitudes are the
// same {M,N,K} permutations either way.
package systolic

import (
	"fmt"

	"scalesim/internal/config"
	"scalesim/internal/topology"
)

// Mapping gives the spatial (Sr, Sc) and temporal (T) extents of a GEMM
// under a dataflow.
type Mapping struct {
	Sr int // spatial extent along array rows
	Sc int // spatial extent along array columns
	T  int // temporal extent (cycles of streaming per fold)
}

// MappingFor maps GEMM dims (M, N, K) under the given dataflow.
func MappingFor(df config.Dataflow, m, n, k int) Mapping {
	switch df {
	case config.OutputStationary:
		return Mapping{Sr: m, Sc: n, T: k}
	case config.WeightStationary:
		return Mapping{Sr: k, Sc: n, T: m}
	case config.InputStationary:
		return Mapping{Sr: k, Sc: m, T: n}
	default:
		panic(fmt.Sprintf("systolic: unknown dataflow %v", df))
	}
}

// CeilDiv returns ⌈a/b⌉ for positive b.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("systolic: CeilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}

// FoldCycles is the pipeline length of one fold on an R×C array streaming T
// temporal steps: 2R + C + T − 2 (fill + stream + skew drain).
func FoldCycles(r, c, t int) int64 {
	return 2*int64(r) + int64(c) + int64(t) - 2
}

// RunEstimate summarizes the closed-form performance of one layer on one
// array (no memory stalls).
type RunEstimate struct {
	Map           Mapping
	R, C          int
	FoldsR        int   // ⌈Sr/R⌉
	FoldsC        int   // ⌈Sc/C⌉
	CyclesPerFold int64 // 2R + C + T − 2
	ComputeCycles int64 // CyclesPerFold × FoldsR × FoldsC
	// Utilization is useful MACs divided by PE-cycles offered.
	Utilization float64
	// MappingEfficiency is the average fraction of PEs holding live
	// mapping (Sr·Sc / (FoldsR·R · FoldsC·C)).
	MappingEfficiency float64
}

// Estimate computes the closed-form runtime of a GEMM on an R×C array.
func Estimate(df config.Dataflow, r, c, m, n, k int) RunEstimate {
	mp := MappingFor(df, m, n, k)
	fr := CeilDiv(mp.Sr, r)
	fc := CeilDiv(mp.Sc, c)
	perFold := FoldCycles(r, c, mp.T)
	total := perFold * int64(fr) * int64(fc)
	macs := int64(m) * int64(n) * int64(k)
	util := 0.0
	if total > 0 {
		util = float64(macs) / (float64(r) * float64(c) * float64(total))
	}
	return RunEstimate{
		Map: mp, R: r, C: c,
		FoldsR: fr, FoldsC: fc,
		CyclesPerFold: perFold,
		ComputeCycles: total,
		Utilization:   util,
		MappingEfficiency: float64(mp.Sr) * float64(mp.Sc) /
			(float64(fr) * float64(r) * float64(fc) * float64(c)),
	}
}

// EstimateLayer lowers a topology layer and estimates it.
func EstimateLayer(df config.Dataflow, r, c int, layer *topology.Layer) RunEstimate {
	m, n, k := layer.GEMMDims()
	return Estimate(df, r, c, m, n, k)
}

// AccessCounts tallies word-granular scratchpad traffic for one operand.
type AccessCounts struct {
	Reads  int64
	Writes int64
}

// LayerAccess is the per-operand SRAM traffic of a dense layer under a
// dataflow, derived from the fold-level reuse structure:
//
//   - the stationary operand is loaded exactly once per element;
//   - the row-streamed operand is re-read once per column-fold;
//   - outputs are written once per contraction fold, with partial sums
//     read back (FoldsK−1) times when the contraction dimension folds.
type LayerAccess struct {
	Ifmap  AccessCounts
	Filter AccessCounts
	Ofmap  AccessCounts // writes include partial-sum spills
}

// Access computes the SRAM access counts for a GEMM under a dataflow on an
// R×C array.
func Access(df config.Dataflow, r, c, m, n, k int) LayerAccess {
	mp := MappingFor(df, m, n, k)
	fr := int64(CeilDiv(mp.Sr, r))
	fc := int64(CeilDiv(mp.Sc, c))
	mm, nn, kk := int64(m), int64(n), int64(k)
	var acc LayerAccess
	switch df {
	case config.OutputStationary:
		// Outputs pinned: A re-read per column fold, B per row fold.
		acc.Ifmap.Reads = mm * kk * fc
		acc.Filter.Reads = kk * nn * fr
		acc.Ofmap.Writes = mm * nn
	case config.WeightStationary:
		// B pinned (loaded once); A re-read per column fold; outputs
		// spill partial sums across the K folds (FoldsR here).
		acc.Filter.Reads = kk * nn
		acc.Ifmap.Reads = mm * kk * fc
		acc.Ofmap.Writes = mm * nn * fr
		acc.Ofmap.Reads = mm * nn * (fr - 1)
	case config.InputStationary:
		// A pinned (loaded once); B re-read per column fold (over M);
		// outputs spill partial sums across the K folds.
		acc.Ifmap.Reads = mm * kk
		acc.Filter.Reads = kk * nn * fc
		acc.Ofmap.Writes = mm * nn * fr
		acc.Ofmap.Reads = mm * nn * (fr - 1)
	default:
		panic(fmt.Sprintf("systolic: unknown dataflow %v", df))
	}
	return acc
}

// MinDRAMTraffic returns the compulsory DRAM traffic in words for a dense
// layer: each operand moved exactly once.
func MinDRAMTraffic(layer *topology.Layer) (reads, writes int64) {
	m, n, k := layer.GEMMDims()
	reads = int64(m)*int64(k) + int64(k)*int64(n)
	writes = int64(m) * int64(n)
	return reads, writes
}
