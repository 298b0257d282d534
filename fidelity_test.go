package scalesim_test

// Tests for the fidelity ladder as a public axis: enum round-trips, the
// StageFidelity declarations of the built-in stages, tier separation in
// the shared layer cache, the facade-level analytical-vs-event
// differential, and the screen-and-promote byte-identity bar.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"scalesim"
)

func TestFidelityStringAndValid(t *testing.T) {
	cases := []struct {
		f    scalesim.Fidelity
		name string
	}{
		{scalesim.EventDriven, "event"},
		{scalesim.Analytical, "analytical"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.name {
			t.Errorf("Fidelity(%d).String() = %q, want %q", c.f, got, c.name)
		}
		if !c.f.Valid() {
			t.Errorf("Fidelity(%d).Valid() = false", c.f)
		}
		// Canonical name must parse back to the same tier.
		back, err := scalesim.ParseFidelity(c.name)
		if err != nil || back != c.f {
			t.Errorf("ParseFidelity(%q) = %v, %v; want %v", c.name, back, err, c.f)
		}
	}
	// 2 was the removed per-cycle tier; it must not come back as valid.
	for _, bad := range []scalesim.Fidelity{2, 7} {
		if bad.Valid() {
			t.Errorf("Fidelity(%d).Valid() = true", bad)
		}
	}
	// These integers are part of the layer-cache key (and so of every
	// on-disk store entry): renumbering them would silently orphan — or,
	// worse, cross-serve — existing cache entries.
	if int(scalesim.EventDriven) != 0 || int(scalesim.Analytical) != 1 {
		t.Errorf("EventDriven=%d Analytical=%d, want 0 and 1", scalesim.EventDriven, scalesim.Analytical)
	}
}

func TestParseFidelityAliasesAndErrors(t *testing.T) {
	aliases := map[string]scalesim.Fidelity{
		"":             scalesim.EventDriven,
		"event":        scalesim.EventDriven,
		"event-driven": scalesim.EventDriven,
		"event_driven": scalesim.EventDriven,
		"  Event  ":    scalesim.EventDriven,
		"analytical":   scalesim.Analytical,
		"analytic":     scalesim.Analytical,
		"ANALYTICAL":   scalesim.Analytical,
	}
	for in, want := range aliases {
		got, err := scalesim.ParseFidelity(in)
		if err != nil || got != want {
			t.Errorf("ParseFidelity(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// The removed per-cycle tier's names are rejected like any other
	// unknown value, and the error lists exactly the two remaining tiers.
	for _, bad := range []string{"cycle", "cycle-accurate", "cycle_accurate", "exact", "rtl", "analytical-ish", "0"} {
		_, err := scalesim.ParseFidelity(bad)
		if err == nil {
			t.Errorf("ParseFidelity(%q) succeeded, want error", bad)
			continue
		}
		if !strings.HasSuffix(err.Error(), "(valid: analytical, event)") {
			t.Errorf("ParseFidelity(%q) error %q does not list exactly the valid tiers", bad, err)
		}
	}
}

// TestStageFidelityLadders pins the ladder each built-in stage declares:
// the memory pass distinguishes both tiers, layout is the same at both,
// and the closed-form passes are purely analytical.
func TestStageFidelityLadders(t *testing.T) {
	want := map[string][]scalesim.Fidelity{
		"compute": {scalesim.Analytical},
		"layout":  {scalesim.EventDriven},
		"memory":  {scalesim.Analytical, scalesim.EventDriven},
		"energy":  {scalesim.Analytical},
	}
	stages := scalesim.DefaultStages()
	if len(stages) != len(want) {
		t.Errorf("DefaultStages has %d stages, want %d", len(stages), len(want))
	}
	for _, st := range stages {
		name := st.Name()
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected built-in stage %q", name)
			continue
		}
		sf, ok := st.(scalesim.StageFidelity)
		if !ok {
			t.Errorf("%s stage does not implement StageFidelity", name)
			continue
		}
		if got := sf.FidelityLadder(); !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s ladder = %v, want %v", name, got, want[name])
		}
	}
}

// memoryConfig enables the memory model so fidelity changes the result —
// and therefore must change the cache fingerprint.
func memoryConfig() scalesim.Config {
	cfg := scalesim.DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 16, 16
	cfg.Memory.Enabled = true
	return cfg
}

// TestCacheFidelitySeparation is ISSUE item (c): a shared cache must never
// serve an Analytical entry for an accurate request (or vice versa). The
// same config and topology are run at every tier through one cache; each
// tier's cold run must miss on every distinct layer shape, and each
// tier's warm rerun must then hit.
func TestCacheFidelitySeparation(t *testing.T) {
	cfg := memoryConfig()
	topo := exploreTopology() // fc1 and fc2 share a shape: 2 distinct, 3 layers
	ctx := context.Background()
	cache := scalesim.NewCache(0, 0)

	tiers := []scalesim.Fidelity{scalesim.Analytical, scalesim.EventDriven}
	for _, fid := range tiers {
		cold, err := scalesim.New(cfg).Run(ctx, topo, scalesim.WithCache(cache), scalesim.WithFidelity(fid))
		if err != nil {
			t.Fatalf("%v cold: %v", fid, err)
		}
		if cold.CacheStats.Misses != 2 || cold.CacheStats.Hits != 1 {
			t.Errorf("%v cold run stats %+v, want 2 misses, 1 hit — tier served another tier's entry",
				fid, cold.CacheStats)
		}
		warm, err := scalesim.New(cfg).Run(ctx, topo, scalesim.WithCache(cache), scalesim.WithFidelity(fid))
		if err != nil {
			t.Fatalf("%v warm: %v", fid, err)
		}
		if warm.CacheStats.Misses != 0 || warm.CacheStats.Hits != 3 {
			t.Errorf("%v warm run stats %+v, want 0 misses, 3 hits", fid, warm.CacheStats)
		}
	}
}

// TestDifferentialFidelityTiers is the facade-level tier differential:
// for memory-enabled runs, Analytical must agree with EventDriven on
// everything that is a property of the schedule (compute cycles, DRAM
// words) and lower-bound the cycle counts. (EventDriven's own exactness
// against the per-cycle reference loops is pinned where those loops live:
// TestEventEngineMatchesReference* in internal/sram and internal/dram, and
// TestDifferentialLayoutStage in this package.)
func TestDifferentialFidelityTiers(t *testing.T) {
	cfg := memoryConfig()
	ctx := context.Background()
	topos := []*scalesim.Topology{
		exploreTopology(),
		{Name: "conv", Layers: []scalesim.Layer{
			{Name: "c1", Kind: scalesim.Conv, IfmapH: 14, IfmapW: 14, FilterH: 3, FilterW: 3,
				Channels: 16, NumFilters: 32, Stride: 1},
		}},
	}
	for _, topo := range topos {
		t.Run(topo.Name, func(t *testing.T) {
			run := func(fid scalesim.Fidelity) *scalesim.Result {
				r, err := scalesim.New(cfg).Run(ctx, topo, scalesim.WithFidelity(fid))
				if err != nil {
					t.Fatalf("%v: %v", fid, err)
				}
				return r
			}
			ana, evt := run(scalesim.Analytical), run(scalesim.EventDriven)
			for i := range evt.Layers {
				a, e := &ana.Layers[i], &evt.Layers[i]
				name := a.Layer.Name
				if a.ComputeCycles != e.ComputeCycles {
					t.Errorf("layer %s: analytical ComputeCycles %d, event %d", name, a.ComputeCycles, e.ComputeCycles)
				}
				if a.DRAMReadWords != e.DRAMReadWords || a.DRAMWriteWords != e.DRAMWriteWords {
					t.Errorf("layer %s: analytical words %d/%d, event %d/%d",
						name, a.DRAMReadWords, a.DRAMWriteWords, e.DRAMReadWords, e.DRAMWriteWords)
				}
				if a.TotalCycles > e.TotalCycles {
					t.Errorf("layer %s: analytical TotalCycles %d exceeds event %d — not a lower bound",
						name, a.TotalCycles, e.TotalCycles)
				}
			}
		})
	}
}

// TestExploreScreenPromoteByteIdentical is the acceptance bar for the
// two-phase search: with PromoteTopK covering the whole space, the
// screened frontier must be byte-identical (CSV) to a plain single-tier
// Explore at any parallelism — screening may only ever change cost, never
// the answer, when nothing is pruned.
func TestExploreScreenPromoteByteIdentical(t *testing.T) {
	topo := exploreTopology()
	cfg := memoryConfig()
	cfg.Energy.Enabled = true
	space := exploreSpace(t)
	objs := []scalesim.Objective{scalesim.CyclesObjective(), scalesim.EnergyObjective()}

	plain, err := scalesim.Explore(context.Background(), cfg, topo, space,
		scalesim.WithExploreObjectives(objs...),
		scalesim.WithExploreStrategy(scalesim.GridSearch),
		scalesim.WithExploreBudget(int(space.Size())),
	)
	if err != nil {
		t.Fatal(err)
	}
	var plainCSV bytes.Buffer
	if _, err := plain.CSVReport().WriteTo(&plainCSV); err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			f, err := scalesim.Explore(context.Background(), cfg, topo, space,
				scalesim.WithExploreObjectives(objs...),
				scalesim.WithExploreStrategy(scalesim.GridSearch),
				scalesim.WithExploreBudget(int(space.Size())),
				scalesim.WithExploreParallelism(par),
				scalesim.WithPromoteTopK(int(space.Size())),
			)
			if err != nil {
				t.Fatal(err)
			}
			if int64(f.Screened) != space.Size() {
				t.Errorf("screened %d of %d points", f.Screened, space.Size())
			}
			if int64(f.Promoted) != space.Size() {
				t.Errorf("promoted %d of %d points — top-K covering the space must promote everything",
					f.Promoted, space.Size())
			}
			if f.Evaluated != f.Promoted {
				t.Errorf("accurate-tier evals %d != promoted %d", f.Evaluated, f.Promoted)
			}
			var got bytes.Buffer
			if _, err := f.CSVReport().WriteTo(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plainCSV.Bytes(), got.Bytes()) {
				t.Errorf("promote-everything frontier CSV differs from single-tier Explore:\n%s\n---\n%s",
					plainCSV.Bytes(), got.Bytes())
			}
			for _, p := range f.Points {
				if p.Fidelity != scalesim.EventDriven {
					t.Errorf("point %s carries fidelity %v, want the accurate tier", p.Name, p.Fidelity)
				}
				if len(p.ScreenError) != len(objs) {
					t.Errorf("point %s: screen error for %d objectives, want %d", p.Name, len(p.ScreenError), len(objs))
				}
			}
		})
	}
}

// TestExploreScreeningPrunes covers the intended use: a small top-K
// promotes only a slice of the space, the frontier stays on the accurate
// tier, and per-point screening errors are recorded.
func TestExploreScreeningPrunes(t *testing.T) {
	topo := exploreTopology()
	cfg := memoryConfig()
	space := exploreSpace(t)

	f, err := scalesim.Explore(context.Background(), cfg, topo, space,
		scalesim.WithExploreObjectives(scalesim.CyclesObjective()),
		scalesim.WithExploreStrategy(scalesim.GridSearch),
		scalesim.WithExploreBudget(int(space.Size())),
		scalesim.WithPromoteTopK(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if int64(f.Screened) != space.Size() {
		t.Errorf("screened %d, want the whole space %d", f.Screened, space.Size())
	}
	if f.Promoted >= f.Screened || f.Promoted < 1 {
		t.Errorf("promoted %d of %d screened, want a strict subset", f.Promoted, f.Screened)
	}
	if f.Evaluated != f.Promoted {
		t.Errorf("Evaluated %d != Promoted %d", f.Evaluated, f.Promoted)
	}
	if f.Fidelity != scalesim.EventDriven {
		t.Errorf("frontier fidelity %v, want EventDriven", f.Fidelity)
	}
	if len(f.Points) == 0 {
		t.Fatal("empty frontier")
	}
	for _, p := range f.Points {
		if p.Fidelity != scalesim.EventDriven {
			t.Errorf("point %s at %v, want accurate tier", p.Name, p.Fidelity)
		}
		if _, ok := p.ScreenError["cycles"]; !ok {
			t.Errorf("point %s missing screen error for cycles objective", p.Name)
		}
	}

	// The screened frontier must still be Pareto-consistent with a plain
	// search: every screened frontier point's objective vector must appear
	// undominated among the plain frontier's vectors only if promotion
	// kept the true optimum — with PromoteTopK >= front size on a
	// single-objective search the best point always survives screening
	// (the analytical tier preserves the compute-bound argmin here).
	plain, err := scalesim.Explore(context.Background(), cfg, topo, space,
		scalesim.WithExploreObjectives(scalesim.CyclesObjective()),
		scalesim.WithExploreStrategy(scalesim.GridSearch),
		scalesim.WithExploreBudget(int(space.Size())),
	)
	if err != nil {
		t.Fatal(err)
	}
	best := plain.Points[0].Objectives[0]
	got := f.Points[0].Objectives[0]
	if got > best {
		t.Errorf("screened best %v worse than plain best %v", got, best)
	}
}

// TestAnalyticalMemoryStageAllocsIndependentOfFolds pins the Analytical
// memory pass as closed-form in memory too: it walks the folds without
// storing them, so a 4×4 array (1024 folds on this GEMM) allocates exactly
// what a 32×32 array (32 folds) does — a small constant.
func TestAnalyticalMemoryStageAllocsIndependentOfFolds(t *testing.T) {
	layer := scalesim.Layer{Name: "fc1", Kind: scalesim.GEMM, M: 128, N: 128, K: 256}
	stages := scalesim.DefaultStages()
	i := slices.IndexFunc(stages, func(st scalesim.Stage) bool { return st.Name() == "memory" })
	if i < 0 {
		t.Fatal("DefaultStages has no memory stage")
	}
	stage := stages[i]
	allocs := func(arr int) float64 {
		cfg := memoryConfig()
		cfg.ArrayRows, cfg.ArrayCols = arr, arr
		// Enough bandwidth that neither array stalls: boxing a non-zero
		// stall count into a span attribute costs an allocation of its
		// own, which depends on the result, not on the fold count.
		cfg.Memory.Technology, cfg.Memory.Channels = "HBM2", 8
		sc := &scalesim.StageContext{
			Config: &cfg, Layer: &layer, Fidelity: scalesim.Analytical, Dataflow: cfg.Dataflow,
			Rows: arr, Cols: arr, M: layer.M, N: layer.N, K: layer.K, FilterRatio: 1,
		}
		lr := &scalesim.LayerResult{Layer: layer, M: layer.M, N: layer.N, K: layer.K}
		return testing.AllocsPerRun(50, func() {
			*lr = scalesim.LayerResult{Layer: layer, M: layer.M, N: layer.N, K: layer.K, ComputeCycles: 1}
			if err := stage.Apply(context.Background(), sc, lr); err != nil {
				t.Fatal(err)
			}
			if lr.Memory.Requests == 0 || lr.StallCycles != 0 {
				t.Fatalf("memory stage reported %d requests, %d stall cycles; want traffic and no stalls",
					lr.Memory.Requests, lr.StallCycles)
			}
		})
	}
	small, large := allocs(4), allocs(32)
	if small != large || small > 4 {
		t.Errorf("Analytical memory stage allocates %v per layer at 4x4 (1024 folds), %v at 32x32 (32 folds); want the same small constant", small, large)
	}
}

// TestAnalyticalSweepPointAllocs pins what one screened candidate costs:
// a 1-point, 2-layer Analytical Sweep with memory and energy on runs on
// the sweep's resolved options (no Simulator or option closures per point)
// and counts its energy in a fixed table, so it allocates little more than
// the Result it returns.
func TestAnalyticalSweepPointAllocs(t *testing.T) {
	cfg := scalesim.DefaultConfig()
	cfg.Memory.Enabled, cfg.Energy.Enabled = true, true
	topo := &scalesim.Topology{Name: "two", Layers: []scalesim.Layer{
		{Name: "fc1", Kind: scalesim.GEMM, M: 128, N: 128, K: 256},
		{Name: "fc2", Kind: scalesim.GEMM, M: 128, N: 256, K: 128},
	}}
	points := []scalesim.SweepPoint{{Name: "p", Config: cfg, Topology: topo}}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(50, func() {
		res, err := scalesim.Sweep(ctx, points, scalesim.WithParallelism(1), scalesim.WithFidelity(scalesim.Analytical))
		if err != nil || res[0].Err != nil {
			t.Fatal(err, res[0].Err)
		}
	})
	if allocs > 41 {
		t.Errorf("1-point, 2-layer Analytical Sweep: %v allocations, want at most 41", allocs)
	}
}
