package scalesim

import (
	"context"
	"fmt"
	"testing"

	"scalesim/internal/systolic"
)

// TestModelInvariants checks closed-form bounds every layer result must
// meet, over every built-in model × {OS, WS, IS} × {8², 32², 128²} at
// Analytical with memory, layout and energy on, plus a 2:4-sparse and a
// 2×2 multi-core variant of each model and dataflow at 32²:
//
//   - the array's PE-cycles cover the layer's useful MACs;
//   - utilization is in (0, 1];
//   - DRAM reads and writes are at least the layer's minimum traffic
//     (systolic.MinDRAMTraffic, with an N:M filter's reads scaled by N/M);
//   - total cycles are compute plus stall cycles;
//   - total energy is at least the leakage, which is positive.
func TestModelInvariants(t *testing.T) {
	type variant struct {
		name string
		size int
		edit func(*Config)
	}
	variants := []variant{{"8", 8, nil}, {"32", 32, nil}, {"128", 128, nil},
		{"32/sparse2:4", 32, func(c *Config) { c.Sparsity.Enabled = true }},
		{"32/multicore2x2", 32, func(c *Config) {
			c.MultiCore.Enabled = true
			c.MultiCore.PartitionRows, c.MultiCore.PartitionCols = 2, 2
		}},
	}
	for _, model := range BuiltinTopologyNames() {
		base, err := BuiltinTopology(model)
		if err != nil {
			t.Fatal(err)
		}
		for _, df := range []Dataflow{OutputStationary, WeightStationary, InputStationary} {
			for _, v := range variants {
				cfg := DefaultConfig()
				cfg.ArrayRows, cfg.ArrayCols = v.size, v.size
				cfg.Dataflow = df
				cfg.Memory.Enabled, cfg.Layout.Enabled, cfg.Energy.Enabled = true, true, true
				topo := base
				if v.edit != nil {
					v.edit(&cfg)
				}
				if cfg.Sparsity.Enabled {
					topo = base.WithSparsity(Sparsity{N: 2, M: 4})
				}
				t.Run(fmt.Sprintf("%s/%v/%s", model, df, v.name), func(t *testing.T) {
					res, err := New(cfg).Run(context.Background(), topo, WithFidelity(Analytical))
					if err != nil {
						t.Fatal(err)
					}
					pes := int64(cfg.ArrayRows*cfg.ArrayCols) * int64(cfg.NumCores())
					for i := range res.Layers {
						checkLayerInvariants(t, &res.Layers[i], pes)
					}
				})
			}
		}
	}
}

func checkLayerInvariants(t *testing.T, lr *LayerResult, pes int64) {
	t.Helper()
	l := &lr.Layer
	useful := l.MACs()
	if sp := l.Sparsity; sp.M > 0 {
		useful = useful * int64(sp.N) / int64(sp.M)
	}
	if lr.ComputeCycles*pes < useful {
		t.Errorf("%s: %d compute cycles × %d PEs < %d useful MACs", l.Name, lr.ComputeCycles, pes, useful)
	}
	if !(lr.Utilization > 0 && lr.Utilization <= 1) {
		t.Errorf("%s: utilization %v outside (0, 1]", l.Name, lr.Utilization)
	}
	reads, writes := systolic.MinDRAMTraffic(l)
	if sp := l.Sparsity; sp.M > 0 {
		// The filter moves compressed: only N of every M weights.
		m, n, k := l.GEMMDims()
		reads = int64(m)*int64(k) + int64(k)*int64(n)*int64(sp.N)/int64(sp.M)
	}
	if lr.DRAMReadWords < reads || lr.DRAMWriteWords < writes {
		t.Errorf("%s: DRAM %d reads / %d writes below the minimum %d / %d",
			l.Name, lr.DRAMReadWords, lr.DRAMWriteWords, reads, writes)
	}
	if lr.TotalCycles != lr.ComputeCycles+lr.StallCycles {
		t.Errorf("%s: %d total cycles != %d compute + %d stall", l.Name, lr.TotalCycles, lr.ComputeCycles, lr.StallCycles)
	}
	if e := lr.Energy; e == nil || !(e.TotalPJ >= e.LeakagePJ && e.LeakagePJ > 0) {
		t.Errorf("%s: energy %+v, want TotalPJ ≥ LeakagePJ > 0", l.Name, e)
	}
}
