// Package sparse implements SCALE-Sim v3's structured-sparsity support:
// N:M row patterns (layer-wise uniform or row-wise randomized), the storage
// footprint of a pattern in each compressed format (CSR, CSC, Blocked
// ELLPACK: value and metadata bits, counted from the pattern, never from
// encoded values), and the compute-cycle model for sparse GEMMs on a
// weight-stationary systolic array.
//
// The filter operand of a layer is viewed as NumFilters rows of K elements
// each; N:M sparsity constrains every aligned block of M elements within a
// row to hold at most N non-zeros. Compression shortens the contraction
// dimension mapped onto the array rows, reducing the number of row folds.
package sparse

import (
	"fmt"
	"math/bits"
	"math/rand"

	"scalesim/internal/config"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// Pattern captures the per-filter non-zero structure of a sparse layer.
type Pattern struct {
	// K is the dense contraction length, BlockSize the M of N:M.
	K         int
	Filters   int
	BlockSize int
	// NNZ[f][b] is the non-zero count of block b of filter f. Rows are
	// read-only once the pattern is built: identical rows may share one
	// backing slice (Uniform aliases all of them).
	NNZ [][]int
}

// Blocks returns the number of (possibly partial) blocks along K.
func (p *Pattern) Blocks() int { return ceilDiv(p.K, p.BlockSize) }

// CompressedLen returns the compressed length of filter f: the sum of its
// per-block non-zero counts.
func (p *Pattern) CompressedLen(f int) int {
	total := 0
	for _, n := range p.NNZ[f] {
		total += n
	}
	return total
}

// MaxCompressedLen returns the longest compressed filter in [lo, hi).
func (p *Pattern) MaxCompressedLen(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > p.Filters {
		hi = p.Filters
	}
	longest := 0
	for f := lo; f < hi; f++ {
		if l := p.CompressedLen(f); l > longest {
			longest = l
		}
	}
	return longest
}

// TotalNNZ sums non-zeros across all filters.
func (p *Pattern) TotalNNZ() int64 {
	var total int64
	for f := 0; f < p.Filters; f++ {
		total += int64(p.CompressedLen(f))
	}
	return total
}

// Density is TotalNNZ / (K × Filters).
func (p *Pattern) Density() float64 {
	denom := int64(p.K) * int64(p.Filters)
	if denom == 0 {
		return 0
	}
	return float64(p.TotalNNZ()) / float64(denom)
}

// Validate checks structural invariants: every block count within
// [0, blockSize], partial final blocks respected.
func (p *Pattern) Validate() error {
	if p.K <= 0 || p.Filters <= 0 || p.BlockSize <= 0 {
		return fmt.Errorf("sparse: non-positive pattern dims K=%d F=%d M=%d", p.K, p.Filters, p.BlockSize)
	}
	if len(p.NNZ) != p.Filters {
		return fmt.Errorf("sparse: pattern has %d filter rows, want %d", len(p.NNZ), p.Filters)
	}
	blocks := p.Blocks()
	for f, row := range p.NNZ {
		if len(row) != blocks {
			return fmt.Errorf("sparse: filter %d has %d blocks, want %d", f, len(row), blocks)
		}
		for b, n := range row {
			size := p.BlockSize
			if b == blocks-1 && p.K%p.BlockSize != 0 {
				size = p.K % p.BlockSize
			}
			if n < 0 || n > size {
				return fmt.Errorf("sparse: filter %d block %d has %d nnz (block size %d)", f, b, n, size)
			}
		}
	}
	return nil
}

// Uniform builds a layer-wise pattern with exactly N non-zeros in every
// full M-block (partial trailing blocks scale proportionally). Every filter
// has the same counts, so all NNZ rows alias one slice.
func Uniform(k, filters int, sp topology.Sparsity) (*Pattern, error) {
	if sp.M == 0 {
		sp = topology.Sparsity{N: 1, M: 1}
	}
	if sp.N <= 0 || sp.N > sp.M {
		return nil, fmt.Errorf("sparse: invalid ratio %v", sp)
	}
	p := &Pattern{K: k, Filters: filters, BlockSize: sp.M}
	row := make([]int, p.Blocks())
	for b := range row {
		row[b] = sp.N
	}
	if tail := k % sp.M; tail != 0 && len(row) > 0 {
		// Partial blocks keep the N:M density.
		row[len(row)-1] = ceilDiv(tail*sp.N, sp.M)
	}
	p.NNZ = make([][]int, filters)
	for f := range p.NNZ {
		p.NNZ[f] = row
	}
	return p, p.Validate()
}

// RowWise builds a row-wise pattern: every filter row draws a random
// per-row N uniformly from [1, M/2] (the paper constrains N ≤ M/2 so that
// sparsity stays computationally advantageous). Deterministic in seed.
func RowWise(k, filters, blockSize int, seed int64) (*Pattern, error) {
	if blockSize < 2 {
		return nil, fmt.Errorf("sparse: row-wise block size must be >= 2, got %d", blockSize)
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Pattern{K: k, Filters: filters, BlockSize: blockSize}
	blocks := p.Blocks()
	p.NNZ = make([][]int, filters)
	half := blockSize / 2
	for f := range p.NNZ {
		n := 1 + rng.Intn(half) // per-row N in [1, M/2]
		row := make([]int, blocks)
		for b := range row {
			size := blockSize
			if b == blocks-1 && k%blockSize != 0 {
				size = k % blockSize
			}
			v := n
			if v > size {
				v = size
			}
			row[b] = v
		}
		p.NNZ[f] = row
	}
	return p, p.Validate()
}

// PatternFor derives the pattern a layer's annotations and the sparsity
// configuration imply: row-wise randomized when OptimizedMapping is set,
// otherwise the layer's uniform N:M annotation (dense layers pass through
// as 1:1).
func PatternFor(layer *topology.Layer, cfg *config.SparsityConfig) (*Pattern, error) {
	_, n, k := layer.GEMMDims()
	if cfg.OptimizedMapping {
		bs := cfg.BlockSize
		if bs == 0 {
			bs = 4
		}
		return RowWise(k, n, bs, cfg.Seed+int64(k)*31+int64(n))
	}
	return Uniform(k, n, layer.Sparsity)
}

// Estimate computes the compute cycles of a sparse GEMM under the
// weight-stationary dataflow (the paper fixes WS for all sparse runs):
// per column fold, the array processes ⌈maxCompressedLen(tile)/R⌉ row
// folds of 2R+C+T−2 cycles each.
func Estimate(r, c, m int, p *Pattern) systolic.RunEstimate {
	t := m // WS streams the M dimension
	fc := ceilDiv(p.Filters, c)
	perFold := systolic.FoldCycles(r, c, t)
	var total int64
	var foldsR int
	for j := 0; j < fc; j++ {
		lo, hi := j*c, (j+1)*c
		kEff := p.MaxCompressedLen(lo, hi)
		if kEff == 0 {
			kEff = 1 // an all-zero tile still occupies one pass
		}
		fr := ceilDiv(kEff, r)
		foldsR += fr
		total += perFold * int64(fr)
	}
	macs := 2 * p.TotalNNZ() * int64(m) / 2 // useful MACs = nnz × M
	util := 0.0
	if total > 0 {
		util = float64(macs) / (float64(r) * float64(c) * float64(total))
	}
	return systolic.RunEstimate{
		Map:           systolic.Mapping{Sr: p.K, Sc: p.Filters, T: t},
		R:             r,
		C:             c,
		FoldsR:        foldsR,
		FoldsC:        fc,
		CyclesPerFold: perFold,
		ComputeCycles: total,
		Utilization:   util,
		MappingEfficiency: float64(p.TotalNNZ()) /
			(float64(foldsR) * float64(r) * float64(c) / float64(fc) * float64(p.Filters)),
	}
}

// EstimateLayer runs Estimate for a lowered topology layer.
func EstimateLayer(r, c int, layer *topology.Layer, cfg *config.SparsityConfig) (systolic.RunEstimate, *Pattern, error) {
	m, _, _ := layer.GEMMDims()
	p, err := PatternFor(layer, cfg)
	if err != nil {
		return systolic.RunEstimate{}, nil, err
	}
	return Estimate(r, c, m, p), p, nil
}

// MetadataBitsPerElement is the per-non-zero metadata cost of the blocked
// ELLPACK format: the index of the element within its block.
func MetadataBitsPerElement(blockSize int) int {
	if blockSize <= 1 {
		return 0
	}
	return bits.Len(uint(blockSize - 1))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
