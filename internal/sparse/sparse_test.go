package sparse

import (
	"reflect"
	"testing"
	"testing/quick"

	"scalesim/internal/config"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

func TestUniformPattern(t *testing.T) {
	p, err := Uniform(16, 4, topology.Sparsity{N: 2, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Blocks() != 4 {
		t.Fatalf("blocks %d", p.Blocks())
	}
	for f := 0; f < 4; f++ {
		if l := p.CompressedLen(f); l != 8 {
			t.Errorf("filter %d compressed len %d, want 8", f, l)
		}
	}
	if d := p.Density(); d != 0.5 {
		t.Errorf("density %f", d)
	}
}

func TestUniformPartialBlock(t *testing.T) {
	// K=10 with M=4: blocks of 4,4,2; the final partial block keeps the
	// N:M density (⌈2·1/4⌉ = 1 for 1:4).
	p, err := Uniform(10, 2, topology.Sparsity{N: 1, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if l := p.CompressedLen(0); l != 3 {
		t.Errorf("compressed len %d, want 3", l)
	}
}

// uniformPerRow is Uniform as it was before the rows were aliased: every
// filter gets its own freshly computed row. Kept as the oracle.
func uniformPerRow(k, filters int, sp topology.Sparsity) *Pattern {
	p := &Pattern{K: k, Filters: filters, BlockSize: sp.M}
	blocks := p.Blocks()
	p.NNZ = make([][]int, filters)
	for f := range p.NNZ {
		row := make([]int, blocks)
		for b := range row {
			size := sp.M
			if b == blocks-1 && k%sp.M != 0 {
				size = k % sp.M
			}
			n := sp.N
			if n > size {
				n = size
			}
			if size < sp.M {
				n = ceilDiv(size*sp.N, sp.M)
			}
			row[b] = n
		}
		p.NNZ[f] = row
	}
	return p
}

// TestUniformMatchesPerRowOracle compares the shared-row Uniform with the
// per-row construction it replaced, value by value and through every
// aggregate the estimator and the storage report read.
func TestUniformMatchesPerRowOracle(t *testing.T) {
	for _, m := range []int{1, 2, 4, 8} {
		for _, rem := range []int{0, 1, m - 1} {
			for _, n := range []int{1, m / 2, m} {
				if n < 1 || rem < 0 || rem >= m {
					continue
				}
				for _, filters := range []int{1, 7, 64} {
					for _, full := range []int{0, 1, 5} {
						k := full*m + rem
						if k == 0 {
							continue
						}
						sp := topology.Sparsity{N: n, M: m}
						got, err := Uniform(k, filters, sp)
						if err != nil {
							t.Fatalf("Uniform(%d, %d, %v): %v", k, filters, sp, err)
						}
						want := uniformPerRow(k, filters, sp)
						if err := want.Validate(); err != nil {
							t.Fatalf("oracle (%d, %d, %v): %v", k, filters, sp, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("Uniform(%d, %d, %v) = %+v, per-row oracle %+v", k, filters, sp, got, want)
						}
						if got.Density() != want.Density() || got.TotalNNZ() != want.TotalNNZ() ||
							got.MaxCompressedLen(0, filters) != want.MaxCompressedLen(0, filters) ||
							got.MaxCompressedLen(filters/2, filters) != want.MaxCompressedLen(filters/2, filters) {
							t.Errorf("Uniform(%d, %d, %v): density %v/%v nnz %d/%d maxlen %d/%d", k, filters, sp,
								got.Density(), want.Density(), got.TotalNNZ(), want.TotalNNZ(),
								got.MaxCompressedLen(0, filters), want.MaxCompressedLen(0, filters))
						}
					}
				}
			}
		}
	}
}

func TestRowWiseDeterministicAndBounded(t *testing.T) {
	a, err := RowWise(64, 32, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RowWise(64, 32, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 32; f++ {
		if a.CompressedLen(f) != b.CompressedLen(f) {
			t.Fatal("row-wise pattern not deterministic in seed")
		}
		for _, n := range a.NNZ[f] {
			if n < 1 || n > 4 {
				t.Fatalf("filter %d block nnz %d outside [1, M/2]", f, n)
			}
		}
	}
	c, err := RowWise(64, 32, 8, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for f := 0; f < 32; f++ {
		if a.CompressedLen(f) != c.CompressedLen(f) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical patterns")
	}
}

func TestRowWiseRejectsTinyBlocks(t *testing.T) {
	if _, err := RowWise(8, 2, 1, 0); err == nil {
		t.Error("block size 1 accepted")
	}
}

func TestEstimateSparseFasterProperty(t *testing.T) {
	// Property: a 1:4 pattern never needs more cycles than dense (4:4)
	// at the same shape.
	f := func(k8, n8, m8 uint8) bool {
		k := int(k8)%200 + 8
		n := int(n8)%60 + 1
		m := int(m8)%100 + 1
		dense, err := Uniform(k, n, topology.Sparsity{N: 4, M: 4})
		if err != nil {
			return false
		}
		quarter, err := Uniform(k, n, topology.Sparsity{N: 1, M: 4})
		if err != nil {
			return false
		}
		de := Estimate(8, 8, m, dense)
		qe := Estimate(8, 8, m, quarter)
		return qe.ComputeCycles <= de.ComputeCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEstimateDenseMatchesSystolic(t *testing.T) {
	// A 4:4 "sparse" run must match the dense WS closed form.
	k, n, m := 96, 40, 70
	p, err := Uniform(k, n, topology.Sparsity{N: 4, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	se := Estimate(16, 16, m, p)
	de := systolic.Estimate(config.WeightStationary, 16, 16, m, n, k)
	if se.ComputeCycles != de.ComputeCycles {
		t.Errorf("sparse-dense cycles %d != systolic %d", se.ComputeCycles, de.ComputeCycles)
	}
}

func TestMetadataBits(t *testing.T) {
	for block, want := range map[int]int{1: 0, 2: 1, 4: 2, 8: 3, 16: 4, 32: 5} {
		if got := MetadataBitsPerElement(block); got != want {
			t.Errorf("block %d: %d bits, want %d", block, got, want)
		}
	}
}

func TestFootprintFormats(t *testing.T) {
	p, err := Uniform(64, 16, topology.Sparsity{N: 2, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []config.SparseFormat{config.BlockedELLPACK, config.CSR, config.CSC} {
		st, err := Footprint(p, format, 16)
		if err != nil {
			t.Fatal(err)
		}
		if st.ValueBits != p.TotalNNZ()*16 {
			t.Errorf("%v: value bits %d", format, st.ValueBits)
		}
		if st.MetadataBits <= 0 {
			t.Errorf("%v: no metadata", format)
		}
		if st.TotalBits() >= DenseBits(p, 16) {
			t.Errorf("%v: 2:4 compression not smaller than dense", format)
		}
	}
}

func TestEllpackMetadataExact(t *testing.T) {
	// 2:4 over K=64 → 32 nnz per row × 2 bits.
	p, _ := Uniform(64, 1, topology.Sparsity{N: 2, M: 4})
	st, err := Footprint(p, config.BlockedELLPACK, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.MetadataBits != 32*2 {
		t.Errorf("metadata bits %d, want 64", st.MetadataBits)
	}
}

func TestNewReport(t *testing.T) {
	p, _ := Uniform(64, 8, topology.Sparsity{N: 1, M: 4})
	rep, err := NewReport("1:4", p, config.BlockedELLPACK, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OriginalFilterWords != 64*8 {
		t.Errorf("original %d", rep.OriginalFilterWords)
	}
	if rep.CompressedFilterWords >= rep.OriginalFilterWords {
		t.Error("no compression")
	}
	if rep.CompressionRatio <= 1 {
		t.Errorf("ratio %f", rep.CompressionRatio)
	}
}

func TestPatternForLayerModes(t *testing.T) {
	layer := topology.Layer{Kind: topology.GEMM, M: 10, N: 8, K: 32,
		Sparsity: topology.Sparsity{N: 2, M: 4}}
	uni, err := PatternFor(&layer, &config.SparsityConfig{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if uni.Density() != 0.5 {
		t.Errorf("uniform density %f", uni.Density())
	}
	rw, err := PatternFor(&layer, &config.SparsityConfig{
		Enabled: true, OptimizedMapping: true, BlockSize: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rw.BlockSize != 8 {
		t.Errorf("row-wise block %d", rw.BlockSize)
	}
	if d := rw.Density(); d > 0.5 {
		t.Errorf("row-wise density %f exceeds M/2 bound", d)
	}
}
