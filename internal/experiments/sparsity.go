package experiments

import (
	"fmt"
	"io"

	"scalesim"
	"scalesim/internal/config"
	"scalesim/internal/sparse"
	"scalesim/internal/topology"
)

// Fig5Params configures the sparsity/on-chip-memory study (paper Fig. 5):
// total cycles including memory stalls versus SRAM size for ResNet-18 at
// 1:4, 2:4 and 4:4 (dense) sparsity under weight-stationary dataflow.
type Fig5Params struct {
	Layers      int   // how many ResNet-18 layers to simulate (0 = all)
	SRAMSizesKB []int // total SRAM sweep points, split 2:1:1 across ifmap, filter and ofmap
	Ratios      []topology.Sparsity
	ArrayRows   int
	ArrayCols   int
	Channels    int
	QueueDepth  int
}

// DefaultFig5 sweeps 96 kB – 3 MB over the whole network.
func DefaultFig5() Fig5Params {
	return Fig5Params{
		Layers:      0,
		SRAMSizesKB: []int{96, 192, 384, 768, 1536, 3072},
		Ratios: []topology.Sparsity{
			{N: 1, M: 4}, {N: 2, M: 4}, {N: 4, M: 4},
		},
		ArrayRows: 32, ArrayCols: 32,
		Channels: 1, QueueDepth: 128,
	}
}

// QuickFig5 trims the sweep for benchmarks.
func QuickFig5() Fig5Params {
	p := DefaultFig5()
	p.Layers = 4
	p.SRAMSizesKB = []int{96, 768}
	return p
}

// Fig5Point is one (ratio, SRAM size) measurement.
type Fig5Point struct {
	Ratio       topology.Sparsity
	SRAMKB      int
	TotalCycles int64 // compute + memory stalls, summed over layers
	StallCycles int64
}

// RunFig5 executes the sweep: one point per ratio × SRAM size.
func RunFig5(p Fig5Params) ([]Fig5Point, error) {
	topo := topology.ResNet18()
	if p.Layers > 0 {
		topo = topo.Sub(0, p.Layers)
	}
	var points []scalesim.SweepPoint
	var keys []Fig5Point
	for _, ratio := range p.Ratios {
		annotated := topo.WithSparsity(ratio)
		for _, kb := range p.SRAMSizesKB {
			// The compute stage forces weight-stationary only for sparse
			// layers; the dense 4:4 point must ask for it. The scratchpads
			// are sized below.
			cfg := memoryConfig(config.WeightStationary, p.ArrayRows, p.ArrayCols,
				p.Channels, p.QueueDepth, 1, 0)
			cfg.IfmapSRAMKB, cfg.FilterSRAMKB, cfg.OfmapSRAMKB = kb/2, kb/4, kb/4
			cfg.Sparsity = config.SparsityConfig{Enabled: true, Format: config.BlockedELLPACK}
			points = append(points, scalesim.SweepPoint{Name: fmt.Sprintf("fig5/%s/%dkB", ratio, kb),
				Config: cfg, Topology: annotated})
			keys = append(keys, Fig5Point{Ratio: ratio, SRAMKB: kb})
		}
	}
	results, err := sweep(points)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		s := res.Summary()
		keys[i].TotalCycles, keys[i].StallCycles = s.TotalCycles, s.TotalStallCycles
	}
	return keys, nil
}

// WriteFig5CSV renders the Fig. 5 series.
func WriteFig5CSV(w io.Writer, pts []Fig5Point) error {
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{p.Ratio.String(), itoa(p.SRAMKB),
			i64(p.TotalCycles), i64(p.StallCycles)})
	}
	return writeCSV(w, []string{"ratio", "sram_kb", "total_cycles", "stall_cycles"}, rows)
}

// Fig7Point is one layer × ratio storage measurement (paper Fig. 7).
type Fig7Point struct {
	LayerName     string
	Ratio         topology.Sparsity
	DenseWords    int64
	ValueWords    int64
	MetadataWords int64
}

// RunFig7 computes Blocked-ELLPACK filter storage for ResNet-18 at dense,
// 1:4, 2:4 and 3:4.
func RunFig7() ([]Fig7Point, error) {
	topo := topology.ResNet18()
	ratios := []topology.Sparsity{{N: 4, M: 4}, {N: 1, M: 4}, {N: 2, M: 4}, {N: 3, M: 4}}
	var out []Fig7Point
	for li := range topo.Layers {
		l := &topo.Layers[li]
		_, n, k := l.GEMMDims()
		for _, ratio := range ratios {
			pat, err := sparse.Uniform(k, n, ratio)
			if err != nil {
				return nil, err
			}
			st, err := sparse.Footprint(pat, config.BlockedELLPACK, 16)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig7Point{
				LayerName:     l.Name,
				Ratio:         ratio,
				DenseWords:    sparse.DenseBits(pat, 16) / 16,
				ValueWords:    st.ValueBits / 16,
				MetadataWords: (st.MetadataBits + 15) / 16,
			})
		}
	}
	return out, nil
}

// WriteFig7CSV renders the Fig. 7 bars.
func WriteFig7CSV(w io.Writer, pts []Fig7Point) error {
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{p.LayerName, p.Ratio.String(),
			i64(p.DenseWords), i64(p.ValueWords), i64(p.MetadataWords)})
	}
	return writeCSV(w, []string{"layer", "ratio", "dense_words", "value_words", "metadata_words"}, rows)
}

// Fig8Params configures the block-size study (paper Fig. 8): ViT
// feed-forward layers under row-wise N:M sparsity, comparing (set 1)
// varying array sizes with block = array dim against (set 2) a fixed 32×32
// array with block sizes 4–32.
type Fig8Params struct {
	// Set1Arrays are the array sizes whose block size tracks the array.
	Set1Arrays []int
	// Set2Blocks are the block sizes at the fixed 32×32 array.
	Set2Blocks []int
	Seed       int64
}

// DefaultFig8 matches the paper: arrays {4,8,16,32}, blocks {4,8,16,32}.
func DefaultFig8() Fig8Params {
	return Fig8Params{
		Set1Arrays: []int{4, 8, 16, 32},
		Set2Blocks: []int{4, 8, 16, 32},
		Seed:       7,
	}
}

// Fig8Point is one configuration's total FF compute cycles.
type Fig8Point struct {
	Set       int // 1 or 2
	Array     int
	BlockSize int
	Cycles    int64
	// MeanRatio is the average realized N/M across rows.
	MeanRatio float64
}

// RunFig8 executes both sets.
func RunFig8(p Fig8Params) ([]Fig8Point, error) {
	topo := topology.ViTFeedForward(topology.ViTBaseConfig())
	run := func(arr, block, set int) (Fig8Point, error) {
		var cycles int64
		var ratioSum float64
		var layers int
		for li := range topo.Layers {
			l := &topo.Layers[li]
			m, n, k := l.GEMMDims()
			pat, err := sparse.RowWise(k, n, block, p.Seed+int64(li))
			if err != nil {
				return Fig8Point{}, err
			}
			est := sparse.Estimate(arr, arr, m, pat)
			cycles += est.ComputeCycles
			ratioSum += pat.Density()
			layers++
		}
		return Fig8Point{Set: set, Array: arr, BlockSize: block,
			Cycles: cycles, MeanRatio: ratioSum / float64(layers)}, nil
	}
	var out []Fig8Point
	for _, arr := range p.Set1Arrays {
		pt, err := run(arr, arr, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	for _, block := range p.Set2Blocks {
		pt, err := run(32, block, 2)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// WriteFig8CSV renders the Fig. 8 series.
func WriteFig8CSV(w io.Writer, pts []Fig8Point) error {
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{itoa(p.Set), itoa(p.Array),
			itoa(p.BlockSize), i64(p.Cycles), f64(p.MeanRatio)})
	}
	return writeCSV(w, []string{"set", "array", "block_size", "cycles", "mean_density"}, rows)
}
