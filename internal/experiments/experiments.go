// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is one function that holds the paper's grid
// and writes the CSV rows the paper plots; All lists them.
//
// An experiment that needs the memory or energy model describes its machine
// as a scalesim.Config and runs on scalesim.Sweep: the DRAM studies (Figs. 9
// and 10, the §IX-B dataflow case), the sparsity/memory study (Fig. 5) and
// the energy studies (Fig. 15, Table V, Table VI's single core). The rest
// call the closed-form model packages, because no Config knob expresses
// what they compute:
//   - Fig. 3 uses the MinFootprint objective and SearchAll per strategy;
//   - Figs. 12 and 13 aggregate layout analyzers across layers and ablate
//     the naive layout;
//   - Fig. 7 counts 16-bit storage rows for dense 4:4;
//   - Fig. 8 seeds each layer's row-wise pattern with its seed + layer;
//   - Table VI's multi-core design searches 16-core partitions under a
//     128² MAC budget;
//   - Table III computes state energies.
//
// No experiment builds the SRAM or DRAM engines by hand.
package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"scalesim"
	"scalesim/internal/topology"
)

// Experiment is one table or figure of the paper. Run writes its CSV to w
// and any summary line to note.
type Experiment struct {
	Name, Desc string
	Run        func(w, note io.Writer) error
}

// All lists the experiments in the order they run.
func All() []Experiment {
	return []Experiment{
		{"fig3", "partitioning trade-off: cycles vs memory footprint", fig3},
		{"fig5", "ResNet-18 total cycles vs on-chip memory at 1:4/2:4/4:4", fig5},
		{"fig7", "ResNet-18 filter storage: dense vs 1:4/2:4/3:4", fig7},
		{"fig8", "ViT FF compute cycles across array and block sizes", fig8},
		{"fig9", "ResNet-18 memory throughput vs DRAM channels", fig9},
		{"fig10", "memory stalls vs request queue size (32/128/512)", fig10},
		{"fig12", "layout slowdown vs bandwidth/banks, ResNet-18", func(w, _ io.Writer) error {
			return layoutSlowdowns(w, "resnet18", 4, false)
		}},
		{"fig13", "layout slowdown vs bandwidth/banks, ViT", func(w, _ io.Writer) error {
			return layoutSlowdowns(w, "vit_base_ff", 0, false)
		}},
		{"layout-ablation", "naive vs stream-natural layouts (the paper's motivation)", func(w, _ io.Writer) error {
			return layoutSlowdowns(w, "resnet18", 4, true)
		}},
		{"fig15", "energy across dataflows and array sizes", fig15},
		{"table3", "system-state energies (idle/active/power-gated)", table3},
		{"table4", "simulation-time overhead of each v3 feature", table4},
		{"table5", "latency/energy/EdP for 32², 64², 128² arrays", table5},
		{"table6", "single 128² vs 16×32² cores, ws/is ratios", table6},
		{"dram-dataflow", "WS vs OS with and without DRAM stalls (§IX-B)", dramDataflow},
	}
}

// workload loads a builtin topology, capped at its first layers layers when
// layers > 0.
func workload(name string, layers int) (*topology.Topology, error) {
	topo, err := topology.Builtin(name)
	if err != nil || layers <= 0 {
		return topo, err
	}
	return topo.Sub(0, layers), nil
}

// sweep runs the points on scalesim.Sweep's worker pool and returns their
// results in point order, or the first point's error.
func sweep(points []scalesim.SweepPoint) ([]*scalesim.Result, error) {
	results, err := scalesim.Sweep(context.Background(), points)
	if err != nil {
		return nil, err
	}
	out := make([]*scalesim.Result, len(results))
	for i, sr := range results {
		if sr.Err != nil {
			return nil, fmt.Errorf("point %s: %w", sr.Point.Name, sr.Err)
		}
		out[i] = sr.Result
	}
	return out, nil
}

// writeCSV writes the header and rows to w.
func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func itoa(v int) string    { return strconv.Itoa(v) }
func i64(v int64) string   { return strconv.FormatInt(v, 10) }
func f64(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
