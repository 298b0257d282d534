package scalesim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/layout"
	"scalesim/internal/report"
	"scalesim/internal/simtest"
	"scalesim/internal/sparse"
	"scalesim/internal/topology"
)

func TestRunDenseDefault(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) != len(topo.Layers) {
		t.Fatalf("got %d layer results, want %d", len(res.Layers), len(topo.Layers))
	}
	for i, l := range res.Layers {
		if l.ComputeCycles <= 0 {
			t.Errorf("layer %d: non-positive compute cycles %d", i, l.ComputeCycles)
		}
		if l.Utilization <= 0 || l.Utilization > 1 {
			t.Errorf("layer %d: utilization %f out of (0,1]", i, l.Utilization)
		}
	}
}

func TestRunWithEnergy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Energy.Enabled = true
	topo, err := BuiltinTopology("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.TotalEnergyMJ(); e <= 0 {
		t.Fatalf("total energy %f not positive", e)
	}
	if res.EdP() <= 0 {
		t.Fatal("EdP not positive")
	}
}

func TestRunSparse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sparsity.Enabled = true
	cfg.Sparsity.Format = config.BlockedELLPACK
	topo, err := BuiltinTopology("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	dense, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	sp := topo.WithSparsity(Sparsity{N: 1, M: 4})
	spRes, err := New(cfg).Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if spRes.TotalCycles() >= dense.TotalCycles() {
		t.Errorf("1:4 sparse cycles %d not below dense %d",
			spRes.TotalCycles(), dense.TotalCycles())
	}
	found := false
	for i := range spRes.Layers {
		if s := spRes.Layers[i].Sparse; s != nil {
			found = true
			if s.CompressedFilterWords >= s.OriginalFilterWords {
				t.Errorf("layer %d: compressed %d >= original %d",
					i, s.CompressedFilterWords, s.OriginalFilterWords)
			}
		}
	}
	if !found {
		t.Error("no sparse report rows produced")
	}
}

func TestRunWithMemoryModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Memory.Enabled = true
	cfg.Memory.Channels = 2
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	topo = topo.Sub(2, 4) // two mid-size layers keep the test fast
	res, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Layers {
		l := &res.Layers[i]
		if l.TotalCycles < l.ComputeCycles {
			t.Errorf("layer %d: total %d < compute %d", i, l.TotalCycles, l.ComputeCycles)
		}
		if l.Memory.Requests == 0 {
			t.Errorf("layer %d: no memory requests recorded", i)
		}
	}
}

func TestRunMultiCore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MultiCore.Enabled = true
	cfg.MultiCore.PartitionRows = 2
	cfg.MultiCore.PartitionCols = 2
	topo, err := BuiltinTopology("vit_base_ff")
	if err != nil {
		t.Fatal(err)
	}
	single := DefaultConfig()
	sres, err := New(single).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if mres.TotalCycles() >= sres.TotalCycles() {
		t.Errorf("4 cores (%d cycles) not faster than 1 core (%d cycles)",
			mres.TotalCycles(), sres.TotalCycles())
	}
}

func TestRunLayout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 16, 16
	cfg.Layout.Enabled = true
	cfg.Layout.Banks = 4
	cfg.Layout.PortsPerBank = 1
	cfg.Layout.OnChipBandwidth = 32
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	topo = topo.Sub(2, 3)
	res, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Layers[0].LayoutSlowdown == 0 {
		t.Log("layout slowdown is exactly 0; acceptable but unusual")
	}
}

// TestDifferentialLayoutStage pins the layout stage's production path
// (layoutSlowdown: fold schedule → AnalyzeSchedule) to the per-cycle replay
// it replaced, over the shared differential grid — for dense layers under
// every dataflow, and for sparse layers (a 2:4 uniform and a row-wise
// pattern on the context, weight-stationary as the compute stage forces).
// The slowdown must be identical, not close: it is cached tier-blind and
// pattern-blind.
func TestDifferentialLayoutStage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layout.Enabled = true
	cases := simtest.Cases()
	// The default banking absorbs the grid's natural-order streams without
	// a single conflict; these starved memories are what make them stall.
	for _, lc := range []layout.Config{
		{Banks: 1, PortsPerBank: 1, TotalBandwidth: 4},
		{Banks: 3, PortsPerBank: 1, TotalBandwidth: 7},
	} {
		cfg.Layout.Banks, cfg.Layout.PortsPerBank, cfg.Layout.OnChipBandwidth = lc.Banks, lc.PortsPerBank, lc.TotalBandwidth
		replay := func(c simtest.Case) float64 {
			var an [3]*layout.Analyzer
			for i := range an {
				var err error
				if an[i], err = layout.NewAnalyzer(lc); err != nil {
					t.Fatal(err)
				}
			}
			err := simtest.LayoutReplay(c.Dataflow, c.R, c.C, c.G, true, func(i, f, o []int64) {
				an[0].Observe(i)
				an[1].Observe(f)
				an[2].Observe(o)
			})
			if err != nil {
				t.Fatalf("%+v %s: replay: %v", lc, c.Name, err)
			}
			return layout.CombinedSlowdown(an[0], an[1], an[2])
		}
		stalled, sparseStalled := 0, 0
		for _, c := range cases {
			sc := StageContext{Config: &cfg, Dataflow: c.Dataflow, Rows: c.R, Cols: c.C, M: c.G.M, N: c.G.N, K: c.G.K}
			got, err := layoutSlowdown(&sc)
			if err != nil {
				t.Fatalf("%+v %s: closed form: %v", lc, c.Name, err)
			}
			want := replay(c)
			if got != want {
				t.Errorf("%+v %s: closed-form slowdown %v, replay %v", lc, c.Name, got, want)
			}
			if want > 0 {
				stalled++
			}
			if c.Dataflow != config.WeightStationary {
				continue
			}
			uniform, err := sparse.Uniform(c.G.K, c.G.N, topology.Sparsity{N: 2, M: 4})
			if err != nil {
				t.Fatal(err)
			}
			rowWise, err := sparse.RowWise(c.G.K, c.G.N, 4, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*sparse.Pattern{uniform, rowWise} {
				sc.pattern, sc.FilterRatio = p, p.Density()
				got, err := layoutSlowdown(&sc)
				if err != nil {
					t.Fatalf("%+v %s: sparse closed form: %v", lc, c.Name, err)
				}
				if got != want {
					t.Errorf("%+v %s: sparse closed-form slowdown %v, replay %v", lc, c.Name, got, want)
				}
			}
			if want > 0 {
				sparseStalled++
			}
		}
		if stalled == 0 || sparseStalled == 0 {
			t.Errorf("%+v: %d grid cases (%d weight-stationary) stall on bank conflicts — the comparison is vacuous",
				lc, stalled, sparseStalled)
		}
	}
}

// TestSparseLayoutReportsDigest runs 2:4 ResNet-18 end to end with a
// port-starved layout, memory and energy on, and pins every rendered report
// byte. The digest was generated at the commit where sparse layers still
// took the per-cycle layout replay, so it holds the closed form to that
// path with a non-zero slowdown on every layer — which the benchmark's
// golden (default banking, slowdown 0) does not cover.
func TestSparseLayoutReportsDigest(t *testing.T) {
	const want = "8f9f2b2bf9ed33273e3918b42a668f3c755e8bcfc8e3b69a1429bca84f657bc2"
	cfg := DefaultConfig()
	cfg.Sparsity.Enabled = true
	cfg.Memory.Enabled, cfg.Energy.Enabled, cfg.Layout.Enabled = true, true, true
	cfg.Layout.Banks, cfg.Layout.PortsPerBank, cfg.Layout.OnChipBandwidth = 3, 1, 7
	topo, err := BuiltinTopology("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cfg).Run(context.Background(), topo.WithSparsity(Sparsity{N: 2, M: 4}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Layers {
		if l := &res.Layers[i]; l.LayoutSlowdown <= 0 || l.Sparse == nil {
			t.Errorf("layer %s: slowdown %v, sparse row %v — the digest would not cover a stalled sparse layer",
				l.Layer.Name, l.LayoutSlowdown, l.Sparse)
		}
	}
	h := sha256.New()
	for _, r := range res.Reports().All() {
		if _, err := r.WriteTo(h); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("reports digest %s, want %s", got, want)
	}
}

// TestWriteReports pins Result.Reports to the internal/report writers:
// each report renders byte-for-byte what the writer emits for the run's
// rows, and models that did not run contribute no report.
func TestWriteReports(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Energy.Enabled = true
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	rs := res.Reports()
	if rs.Memory != nil || rs.Sparse != nil {
		t.Error("memory/sparse report present although neither model ran")
	}
	crows, brows, _, _, erows := res.reportRows()
	var comp, bw, en bytes.Buffer
	if err := report.WriteCompute(&comp, crows); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteBandwidth(&bw, brows); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteEnergy(&en, erows); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		rep  *Report
		want []byte
	}{{rs.Compute, comp.Bytes()}, {rs.Bandwidth, bw.Bytes()}, {rs.Energy, en.Bytes()}} {
		if c.rep == nil {
			t.Fatal("compute, bandwidth or energy report missing")
		}
		var got bytes.Buffer
		if _, err := c.rep.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), c.want) {
			t.Errorf("%s differs from the report writer's output", c.rep.Filename())
		}
	}
	if !strings.Contains(comp.String(), "Conv1") {
		t.Error("compute report missing layer rows")
	}
	if !strings.Contains(en.String(), "TotalEnergyMJ") {
		t.Error("energy report missing header")
	}
}

// TestEveryConfigFieldIsModelled guards against knobs that are parsed,
// fingerprinted and accepted on the wire but read by no model: every leaf
// of Config (slice elements included) needs a case here whose perturbation
// changes the rendered reports of a conv layer plus a 2:4 GEMM layer. A new
// leaf without a case fails, as does a case whose leaf no longer exists.
func TestEveryConfigFieldIsModelled(t *testing.T) {
	exempt := map[string]string{
		"RunName": "a label for trace files; excluded from the fingerprint",
	}
	sparse := func(c *Config) { c.Sparsity.Enabled = true }
	rowWise := func(c *Config) {
		c.Sparsity = config.SparsityConfig{Enabled: true, OptimizedMapping: true, BlockSize: 4, Seed: 1}
	}
	memory := func(c *Config) { c.Memory.Enabled = true }
	// One single-ported bank whose lines the layers' misaligned operand
	// rows straddle, so the layout slowdown is positive.
	layout := func(c *Config) {
		c.Dataflow, c.ArrayRows, c.ArrayCols = WeightStationary, 16, 16
		c.Layout = config.LayoutConfig{Enabled: true, Banks: 1, PortsPerBank: 1, OnChipBandwidth: 16}
	}
	energy := func(c *Config) { c.Energy.Enabled = true }
	grid := func(c *Config) {
		c.MultiCore = config.MultiCoreConfig{Enabled: true, PartitionRows: 2, PartitionCols: 2}
	}
	hetero := func(c *Config) {
		c.MultiCore = config.MultiCoreConfig{Enabled: true, HopLatency: 5000,
			Cores: []config.CoreSpec{{Rows: 16, Cols: 16, NoPHops: 2}, {Rows: 16, Cols: 16}}}
	}
	cases := map[string]struct{ base, perturb func(*Config) }{
		"ArrayRows":      {nil, func(c *Config) { c.ArrayRows = 16 }},
		"ArrayCols":      {nil, func(c *Config) { c.ArrayCols = 16 }},
		"IfmapSRAMKB":    {memory, func(c *Config) { c.IfmapSRAMKB = 1 }},
		"FilterSRAMKB":   {memory, func(c *Config) { c.FilterSRAMKB = 1 }},
		"OfmapSRAMKB":    {func(c *Config) { memory(c); c.Dataflow = WeightStationary }, func(c *Config) { c.OfmapSRAMKB = 4096 }},
		"Dataflow":       {nil, func(c *Config) { c.Dataflow = WeightStationary }},
		"BandwidthWords": {memory, func(c *Config) { c.BandwidthWords = 64 }},
		"WordBytes":      {sparse, func(c *Config) { c.WordBytes = 2 }},

		"Sparsity.Enabled":          {nil, sparse},
		"Sparsity.OptimizedMapping": {func(c *Config) { sparse(c); c.Sparsity.BlockSize = 4 }, func(c *Config) { c.Sparsity.OptimizedMapping = true }},
		"Sparsity.Format":           {sparse, func(c *Config) { c.Sparsity.Format = config.CSR }},
		"Sparsity.BlockSize":        {rowWise, func(c *Config) { c.Sparsity.BlockSize = 8 }},
		"Sparsity.Seed":             {rowWise, func(c *Config) { c.Sparsity.Seed = 2 }},

		"Memory.Enabled":         {nil, memory},
		"Memory.Technology":      {memory, func(c *Config) { c.Memory.Technology = "HBM2" }},
		"Memory.Channels":        {memory, func(c *Config) { c.Memory.Channels = 4 }},
		"Memory.ReadQueueDepth":  {memory, func(c *Config) { c.Memory.ReadQueueDepth = 1 }},
		"Memory.WriteQueueDepth": {memory, func(c *Config) { c.Memory.WriteQueueDepth = 1 }},

		"Layout.Enabled":         {func(c *Config) { layout(c); c.Layout.Enabled = false }, func(c *Config) { c.Layout.Enabled = true }},
		"Layout.Banks":           {layout, func(c *Config) { c.Layout.Banks = 2 }},
		"Layout.PortsPerBank":    {layout, func(c *Config) { c.Layout.PortsPerBank = 2 }},
		"Layout.OnChipBandwidth": {layout, func(c *Config) { c.Layout.OnChipBandwidth = 32 }},

		"Energy.Enabled":      {nil, energy},
		"Energy.ClockGating":  {energy, func(c *Config) { c.Energy.ClockGating = false }},
		"Energy.RowSize":      {energy, func(c *Config) { c.Energy.RowSize = 32 }},
		"Energy.BankSize":     {energy, func(c *Config) { c.Energy.BankSize = 8 }},
		"Energy.FrequencyMHz": {energy, func(c *Config) { c.Energy.FrequencyMHz = 500 }},
		"Energy.IncludeDRAM":  {energy, func(c *Config) { c.Energy.IncludeDRAM = true }},

		"MultiCore.Enabled":       {nil, grid},
		"MultiCore.PartitionRows": {grid, func(c *Config) { c.MultiCore.PartitionRows = 4 }},
		"MultiCore.PartitionCols": {grid, func(c *Config) { c.MultiCore.PartitionCols = 4 }},
		"MultiCore.Strategy":      {grid, func(c *Config) { c.MultiCore.Strategy = config.SpatioTemporal1 }},
		"MultiCore.Cores.Rows":    {hetero, func(c *Config) { c.MultiCore.Cores[1].Rows = 32 }},
		"MultiCore.Cores.Cols":    {hetero, func(c *Config) { c.MultiCore.Cores[1].Cols = 32 }},
		"MultiCore.Cores.NoPHops": {hetero, func(c *Config) { c.MultiCore.Cores[0].NoPHops = 50 }},
		"MultiCore.NonUniform":    {hetero, func(c *Config) { c.MultiCore.NonUniform = true }},
		"MultiCore.HopLatency":    {hetero, func(c *Config) { c.MultiCore.HopLatency = 1000 }},
	}

	var leaves []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			ft := f.Type
			if ft.Kind() == reflect.Slice {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", ft)
				continue
			}
			leaves = append(leaves, prefix+f.Name)
		}
	}
	walk("", reflect.TypeOf(Config{}))

	topo := &Topology{Name: "modelled", Layers: []Layer{
		{Name: "conv", Kind: Conv, IfmapH: 30, IfmapW: 30, FilterH: 3, FilterW: 3,
			Channels: 3, NumFilters: 48, Stride: 1},
		{Name: "gemm", Kind: GEMM, M: 250, N: 250, K: 60, Sparsity: Sparsity{N: 2, M: 4}},
	}}
	render := func(leaf string, mut ...func(*Config)) []byte {
		t.Helper()
		cfg := DefaultConfig()
		for _, m := range mut {
			if m != nil {
				m(&cfg)
			}
		}
		res, err := New(cfg).Run(context.Background(), topo)
		if err != nil {
			t.Fatalf("%s: %v", leaf, err)
		}
		return reportBytes(t, res)
	}
	for _, leaf := range leaves {
		if _, ok := exempt[leaf]; ok {
			continue
		}
		c, ok := cases[leaf]
		if !ok {
			t.Errorf("Config.%s has no case: give it a base and a perturbation that changes the reports, or delete it", leaf)
			continue
		}
		delete(cases, leaf)
		if bytes.Equal(render(leaf, c.base), render(leaf, c.base, c.perturb)) {
			t.Errorf("perturbing Config.%s leaves every report byte unchanged: no model reads it", leaf)
		}
	}
	for leaf := range cases {
		t.Errorf("case %q names no leaf of Config", leaf)
	}
}
