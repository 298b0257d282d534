package multicore

import (
	"fmt"

	"scalesim/internal/config"
	"scalesim/internal/systolic"
)

// CoreResult is one tensor core's share of a layer.
type CoreResult struct {
	Spec config.CoreSpec
	// ColsAssigned is the slice of the Sc dimension this core received.
	ColsAssigned int
	// ComputeCycles includes the systolic GEMM only.
	ComputeCycles int64
	// NoPCycles is the network-on-package transfer latency serialized
	// with compute (hops × hop latency).
	NoPCycles int64
}

// Total returns the core's finish time contribution.
func (c *CoreResult) Total() int64 { return c.ComputeCycles + c.NoPCycles }

// HeteroResult is the outcome of running one GEMM across heterogeneous
// tensor cores.
type HeteroResult struct {
	Cores []CoreResult
	// Cycles is the makespan: the slowest core's finish time.
	Cycles int64
	// Imbalance is (max − min finish time) / max.
	Imbalance float64
}

// HeteroOptions configures SimulateHetero.
type HeteroOptions struct {
	// HopLatency is cycles per NoP hop charged against a core's finish
	// time (0 = uniform cores, ignore distance).
	HopLatency int
	// NonUniform redistributes columns so cores with higher NoP latency
	// receive proportionally less work (the paper's non-uniform
	// partitioning for Simba-like MCM designs).
	NonUniform bool
}

// SimulateHetero splits a mapped GEMM's output columns (the Sc dimension)
// across heterogeneous cores and returns per-core and makespan results.
// Columns are assigned proportionally to each core's throughput (R×C),
// optionally corrected for NoP distance.
func SimulateHetero(cores []config.CoreSpec, mp systolic.Mapping, opts HeteroOptions) (*HeteroResult, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("multicore: no cores")
	}
	weights := make([]float64, len(cores))
	for i, c := range cores {
		weights[i] = float64(c.Rows * c.Cols)
	}
	res, err := splitColumns(cores, mp, opts.HopLatency, weights)
	if err != nil || !opts.NonUniform || opts.HopLatency <= 0 {
		return res, err
	}
	// Non-uniform mode discounts distant cores so finish times equalize
	// despite NoP latency: a core `hops` away loses hops×hopLatency
	// cycles to communication, so its share shrinks by the fraction of
	// its (estimated) makespan that overhead represents.
	for i, c := range cores {
		base := float64(estimateCycles(c.Rows, c.Cols, mp, mp.Sc)) / float64(len(cores))
		if denom := base + float64(c.NoPHops*opts.HopLatency); denom > 0 {
			weights[i] = weights[i] * base / denom
		}
	}
	non, err := splitColumns(cores, mp, opts.HopLatency, weights)
	if err != nil {
		return nil, err
	}
	// Whole folds make the makespan a step function of the column
	// counts, so the discounted split can come out slower (one column
	// more on a near core can cost it a whole fold). Keep it only when
	// it wins.
	if non.Cycles < res.Cycles {
		return non, nil
	}
	return res, nil
}

// splitColumns assigns mp.Sc columns to cores in proportion to weights
// and evaluates each core's finish time.
func splitColumns(cores []config.CoreSpec, mp systolic.Mapping, hopLatency int, weights []float64) (*HeteroResult, error) {
	var totalW float64
	for _, w := range weights {
		totalW += w
	}
	if totalW <= 0 {
		return nil, fmt.Errorf("multicore: degenerate core weights")
	}

	// Assign integer column counts, largest remainder first.
	assigned := apportion(mp.Sc, weights)

	res := &HeteroResult{}
	var maxT, minT int64 = 0, 1 << 62
	for i, c := range cores {
		cr := CoreResult{Spec: c, ColsAssigned: assigned[i]}
		if assigned[i] > 0 {
			cr.ComputeCycles = estimateCycles(c.Rows, c.Cols, mp, assigned[i])
			cr.NoPCycles = int64(c.NoPHops * hopLatency)
		}
		res.Cores = append(res.Cores, cr)
		t := cr.Total()
		if t > maxT {
			maxT = t
		}
		if t < minT {
			minT = t
		}
	}
	res.Cycles = maxT
	if maxT > 0 {
		res.Imbalance = float64(maxT-minT) / float64(maxT)
	}
	return res, nil
}

// estimateCycles runs the closed-form estimate for a core processing `cols`
// of the Sc dimension (the full Sr and T).
func estimateCycles(r, c int, mp systolic.Mapping, cols int) int64 {
	if cols <= 0 {
		return 0
	}
	return systolic.FoldCycles(r, c, mp.T) *
		int64(systolic.CeilDiv(mp.Sr, r)) *
		int64(systolic.CeilDiv(cols, c))
}

// apportion splits `total` integer units proportionally to weights using
// the largest-remainder method; every positive weight receives ≥ 0 units
// and the counts sum to total.
func apportion(total int, weights []float64) []int {
	n := len(weights)
	out := make([]int, n)
	var sumW float64
	for _, w := range weights {
		sumW += w
	}
	if sumW <= 0 || total <= 0 {
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, 0, n)
	used := 0
	for i, w := range weights {
		exact := float64(total) * w / sumW
		fl := int(exact)
		out[i] = fl
		used += fl
		rems = append(rems, rem{i, exact - float64(fl)})
	}
	// Hand out the remainder to the largest fractional parts.
	for used < total {
		best := 0
		for i := 1; i < len(rems); i++ {
			if rems[i].frac > rems[best].frac {
				best = i
			}
		}
		out[rems[best].idx]++
		rems[best].frac = -1
		used++
	}
	return out
}
