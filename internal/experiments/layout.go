package experiments

import (
	"io"

	"scalesim/internal/config"
	"scalesim/internal/layout"
	"scalesim/internal/systolic"
)

// LayoutParams configures the data-layout slowdown study (paper Figs. 12
// and 13): slowdown of the realistic multi-bank layout model versus the
// pure-bandwidth model across on-chip bandwidths and bank counts, for all
// three dataflows on a 128×128 array.
type LayoutParams struct {
	Workload   string // builtin topology name
	Layers     int    // layer cap (0 = all)
	ArrayRows  int
	ArrayCols  int
	Bandwidths []int
	Banks      []int
	Ports      int
	// NaiveLayout stores every operand row-major regardless of how the
	// dataflow walks it. The default (false) stores each operand in its
	// stream-natural order — the layout a layout-aware tool would pick —
	// which is what the paper's Figs. 12/13 evaluate. The naive mode is
	// the ablation behind the paper's "ignoring data layout can cost an
	// order of magnitude" motivation.
	NaiveLayout bool
}

// DefaultFig12 is the ResNet-18 study.
func DefaultFig12() LayoutParams {
	return LayoutParams{
		Workload: "resnet18", Layers: 4,
		ArrayRows: 128, ArrayCols: 128,
		Bandwidths: []int{64, 128, 256, 512, 1024},
		Banks:      []int{1, 2, 4, 8, 16},
		Ports:      2,
	}
}

// DefaultFig13 is the ViT study.
func DefaultFig13() LayoutParams {
	p := DefaultFig12()
	p.Workload = "vit_base_ff"
	p.Layers = 0
	return p
}

// LayoutPoint is one (dataflow, bandwidth, banks) slowdown.
type LayoutPoint struct {
	Dataflow  config.Dataflow
	Bandwidth int
	Banks     int
	Slowdown  float64
}

// RunLayout derives each layer's fold schedule once per dataflow and feeds
// its closed-form access patterns to every (bandwidth, banks) pair's
// analyzers — no per-cycle demand replay.
func RunLayout(p LayoutParams) ([]LayoutPoint, error) {
	topo, err := workload(p.Workload, p.Layers)
	if err != nil {
		return nil, err
	}

	type cfgKey struct{ bw, banks int }
	var out []LayoutPoint
	for _, df := range config.Dataflows() {
		// One analyzer triple (ifmap/filter/ofmap) per configuration.
		type triple struct{ ifa, fla, ofa *layout.Analyzer }
		analyzers := make(map[cfgKey]triple)
		for _, bw := range p.Bandwidths {
			for _, banks := range p.Banks {
				lc := layout.Config{Banks: banks, PortsPerBank: p.Ports, TotalBandwidth: bw}
				ifa, err := layout.NewAnalyzer(lc)
				if err != nil {
					return nil, err
				}
				fla, err := layout.NewAnalyzer(lc)
				if err != nil {
					return nil, err
				}
				ofa, err := layout.NewAnalyzer(lc)
				if err != nil {
					return nil, err
				}
				analyzers[cfgKey{bw, banks}] = triple{ifa, fla, ofa}
			}
		}
		for li := range topo.Layers {
			m, n, k := topo.Layers[li].GEMMDims()
			fs, err := systolic.NewFoldSchedule(df, p.ArrayRows, p.ArrayCols,
				systolic.Gemm{M: m, N: n, K: k})
			if err != nil {
				return nil, err
			}
			for _, tr := range analyzers {
				layout.AnalyzeSchedule(fs, tr.ifa, tr.fla, tr.ofa, !p.NaiveLayout)
			}
		}
		for _, bw := range p.Bandwidths {
			for _, banks := range p.Banks {
				tr := analyzers[cfgKey{bw, banks}]
				out = append(out, LayoutPoint{Dataflow: df, Bandwidth: bw,
					Banks: banks, Slowdown: layout.CombinedSlowdown(tr.ifa, tr.fla, tr.ofa)})
			}
		}
	}
	return out, nil
}

// WriteLayoutCSV renders the slowdown grid.
func WriteLayoutCSV(w io.Writer, pts []LayoutPoint) error {
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{p.Dataflow.String(), itoa(p.Bandwidth),
			itoa(p.Banks), f64(p.Slowdown)})
	}
	return writeCSV(w, []string{"dataflow", "bandwidth", "banks", "slowdown"}, rows)
}
