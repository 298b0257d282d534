package experiments

import (
	"context"
	"io"
	"time"

	"scalesim"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// table4 is the simulation-time overhead study (paper Table IV): for the
// first four layers of each workload, the wall-clock cost of each v3
// feature relative to the v2-style baseline run on a TPU-like
// configuration (feature runtime / baseline runtime).
func table4(w, _ io.Writer) error {
	var rows [][]string
	for _, name := range []string{"alexnet", "resnet18", "vit_large", "vit_small"} {
		topo, err := workload(name, 4)
		if err != nil {
			return err
		}

		base := scalesim.DefaultConfig()
		base.ArrayRows, base.ArrayCols = 64, 64
		// Give the memory feature a high-bandwidth interface so its
		// overhead measures simulation cost, not stall cycles.
		base.Memory.Channels = 4
		base.BandwidthWords = 64

		// Every run includes the cycle-accurate demand streaming that
		// SCALE-Sim v2 performs for its traces, so feature overheads are
		// measured against a realistic baseline.
		timeRun := func(cfg scalesim.Config, t *topology.Topology) (time.Duration, error) {
			start := time.Now()
			// Sequential so the ratios measure model cost, not pool width.
			_, err := scalesim.New(cfg).Run(context.Background(), t, scalesim.WithParallelism(1))
			if err != nil {
				return 0, err
			}
			for li := range t.Layers {
				m, n, k := t.Layers[li].GEMMDims()
				err := systolic.Stream(cfg.Dataflow, cfg.ArrayRows, cfg.ArrayCols,
					systolic.Gemm{M: m, N: n, K: k}, func(d *systolic.Demand) bool { return true })
				if err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		}

		baseT, err := timeRun(base, topo)
		if err != nil {
			return err
		}
		if baseT <= 0 {
			baseT = time.Microsecond
		}
		row := []string{name, f64(baseT.Seconds())}

		mc, sp, en, mem, lay := base, base, base, base, base
		mc.MultiCore.Enabled = true
		mc.MultiCore.PartitionRows, mc.MultiCore.PartitionCols = 2, 2
		sp.Sparsity.Enabled = true
		en.Energy.Enabled = true
		mem.Memory.Enabled = true
		lay.Layout.Enabled = true
		for _, f := range []struct {
			cfg  scalesim.Config
			topo *topology.Topology
		}{
			{mc, topo},
			{sp, topo.WithSparsity(topology.Sparsity{N: 2, M: 4})},
			{sp, topo.WithSparsity(topology.Sparsity{N: 1, M: 4})},
			{en, topo},
			{mem, topo},
			{lay, topo},
		} {
			d, err := timeRun(f.cfg, f.topo)
			if err != nil {
				return err
			}
			row = append(row, f64(float64(d)/float64(baseT)))
		}
		rows = append(rows, row)
	}
	return writeCSV(w, []string{"workload", "baseline_s", "multicore_x",
		"sparsity24_x", "sparsity14_x", "accelergy_x", "ramulator_x", "layout_x"}, rows)
}
