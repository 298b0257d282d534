package experiments

import (
	"fmt"
	"io"

	"scalesim"
	"scalesim/internal/config"
	"scalesim/internal/sparse"
	"scalesim/internal/topology"
)

// fig5 is the sparsity/on-chip-memory study (paper Fig. 5): total cycles
// including memory stalls, summed over every ResNet-18 layer, versus total
// SRAM from 96 kB to 3 MB (split 2:1:1 across ifmap, filter and ofmap) at
// 1:4, 2:4 and 4:4 (dense) sparsity under weight-stationary dataflow on a
// 32×32 array with one DDR4 channel, one sweep point per ratio × SRAM size.
func fig5(w, _ io.Writer) error {
	topo := topology.ResNet18()
	var points []scalesim.SweepPoint
	var keys [][]string
	for _, ratio := range []topology.Sparsity{{N: 1, M: 4}, {N: 2, M: 4}, {N: 4, M: 4}} {
		annotated := topo.WithSparsity(ratio)
		for _, kb := range []int{96, 192, 384, 768, 1536, 3072} {
			// The compute stage forces weight-stationary only for sparse
			// layers; the dense 4:4 point must ask for it. The scratchpads
			// are sized below.
			cfg := memoryConfig(config.WeightStationary, 32, 32, 1, 128, 1, 0)
			cfg.IfmapSRAMKB, cfg.FilterSRAMKB, cfg.OfmapSRAMKB = kb/2, kb/4, kb/4
			cfg.Sparsity = config.SparsityConfig{Enabled: true, Format: config.BlockedELLPACK}
			points = append(points, scalesim.SweepPoint{Name: fmt.Sprintf("fig5/%s/%dkB", ratio, kb),
				Config: cfg, Topology: annotated})
			keys = append(keys, []string{ratio.String(), itoa(kb)})
		}
	}
	results, err := sweep(points)
	if err != nil {
		return err
	}
	for i, res := range results {
		s := res.Summary()
		keys[i] = append(keys[i], i64(s.TotalCycles), i64(s.TotalStallCycles))
	}
	return writeCSV(w, []string{"ratio", "sram_kb", "total_cycles", "stall_cycles"}, keys)
}

// fig7 is the filter-storage study (paper Fig. 7): Blocked-ELLPACK storage
// of every ResNet-18 layer's filter, in 16-bit words, at dense, 1:4, 2:4
// and 3:4.
func fig7(w, _ io.Writer) error {
	topo := topology.ResNet18()
	var rows [][]string
	for li := range topo.Layers {
		l := &topo.Layers[li]
		_, n, k := l.GEMMDims()
		for _, ratio := range []topology.Sparsity{{N: 4, M: 4}, {N: 1, M: 4}, {N: 2, M: 4}, {N: 3, M: 4}} {
			pat, err := sparse.Uniform(k, n, ratio)
			if err != nil {
				return err
			}
			st, err := sparse.Footprint(pat, config.BlockedELLPACK, 16)
			if err != nil {
				return err
			}
			rows = append(rows, []string{l.Name, ratio.String(), i64(sparse.DenseBits(pat, 16) / 16),
				i64(st.ValueBits / 16), i64((st.MetadataBits + 15) / 16)})
		}
	}
	return writeCSV(w, []string{"layer", "ratio", "dense_words", "value_words", "metadata_words"}, rows)
}

// fig8 is the block-size study (paper Fig. 8): total compute cycles of the
// ViT-base feed-forward layers under row-wise N:M sparsity, comparing set 1
// (arrays 4–32 with the block size tracking the array) against set 2 (a
// fixed 32×32 array with blocks 4–32). Layer li's pattern is drawn with
// seed 7+li; mean_density is the average realized N/M across rows.
func fig8(w, _ io.Writer) error {
	topo := topology.ViTFeedForward(topology.ViTBaseConfig())
	var rows [][]string
	run := func(set, arr, block int) error {
		var cycles int64
		var densitySum float64
		for li := range topo.Layers {
			m, n, k := topo.Layers[li].GEMMDims()
			pat, err := sparse.RowWise(k, n, block, 7+int64(li))
			if err != nil {
				return err
			}
			cycles += sparse.Estimate(arr, arr, m, pat).ComputeCycles
			densitySum += pat.Density()
		}
		rows = append(rows, []string{itoa(set), itoa(arr), itoa(block), i64(cycles),
			f64(densitySum / float64(len(topo.Layers)))})
		return nil
	}
	for _, arr := range []int{4, 8, 16, 32} {
		if err := run(1, arr, arr); err != nil {
			return err
		}
	}
	for _, block := range []int{4, 8, 16, 32} {
		if err := run(2, 32, block); err != nil {
			return err
		}
	}
	return writeCSV(w, []string{"set", "array", "block_size", "cycles", "mean_density"}, rows)
}
