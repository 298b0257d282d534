// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment has a parameter struct whose Default()
// constructor is the paper's grid, returns typed rows, and can render itself
// as CSV for plotting.
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
//   - Fig. 8 seeds each layer's row-wise pattern with Seed+layer;
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

// writeCSV is a small helper for the experiment writers.
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
