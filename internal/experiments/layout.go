package experiments

import (
	"io"

	"scalesim/internal/config"
	"scalesim/internal/layout"
	"scalesim/internal/systolic"
)

// layoutSlowdowns is the data-layout slowdown study (paper Figs. 12 and
// 13): slowdown of the realistic multi-bank layout model, two ports per
// bank, versus the pure-bandwidth model across on-chip bandwidths and bank
// counts, for all three dataflows on a 128×128 array running the first
// layers layers of the builtin workload (all of them when layers is 0).
//
// naive stores every operand row-major regardless of how the dataflow walks
// it. Otherwise each operand is stored in its stream-natural order — the
// layout a layout-aware tool would pick — which is what the paper's Figs.
// 12/13 evaluate. The naive mode is the ablation behind the paper's
// "ignoring data layout can cost an order of magnitude" motivation.
//
// Each layer's fold schedule is derived once per dataflow, and its
// closed-form access patterns feed every (bandwidth, banks) pair's
// analyzers — no per-cycle demand replay.
func layoutSlowdowns(w io.Writer, name string, layers int, naive bool) error {
	topo, err := workload(name, layers)
	if err != nil {
		return err
	}
	bandwidths, banks := []int{64, 128, 256, 512, 1024}, []int{1, 2, 4, 8, 16}
	var rows [][]string
	for _, df := range config.Dataflows() {
		// One analyzer triple (ifmap/filter/ofmap) per configuration, in
		// bandwidth-major order.
		var analyzers [][3]*layout.Analyzer
		for _, bw := range bandwidths {
			for _, nb := range banks {
				var tr [3]*layout.Analyzer
				for i := range tr {
					if tr[i], err = layout.NewAnalyzer(layout.Config{Banks: nb, PortsPerBank: 2, TotalBandwidth: bw}); err != nil {
						return err
					}
				}
				analyzers = append(analyzers, tr)
			}
		}
		for li := range topo.Layers {
			m, n, k := topo.Layers[li].GEMMDims()
			fs, err := systolic.NewFoldSchedule(df, 128, 128, systolic.Gemm{M: m, N: n, K: k})
			if err != nil {
				return err
			}
			for _, tr := range analyzers {
				layout.AnalyzeSchedule(fs, tr[0], tr[1], tr[2], !naive)
			}
		}
		for i, tr := range analyzers {
			rows = append(rows, []string{df.String(), itoa(bandwidths[i/len(banks)]),
				itoa(banks[i%len(banks)]), f64(layout.CombinedSlowdown(tr[0], tr[1], tr[2]))})
		}
	}
	return writeCSV(w, []string{"dataflow", "bandwidth", "banks", "slowdown"}, rows)
}
