package scalesim_test

// Tests for the design-space exploration subsystem: determinism across
// parallelism, brute-force Pareto oracle checks, budget and cancellation
// behavior, and the point-level sweep progress option it builds on.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"scalesim"
)

// exploreTopology is a small mixed workload: two distinct GEMM shapes plus
// a repeated one, so a run has a shape to copy.
func exploreTopology() *scalesim.Topology {
	return &scalesim.Topology{Name: "explore_mlp", Layers: []scalesim.Layer{
		{Name: "fc1", Kind: scalesim.GEMM, M: 64, N: 64, K: 128},
		{Name: "fc2", Kind: scalesim.GEMM, M: 64, N: 64, K: 128},
		{Name: "fc3", Kind: scalesim.GEMM, M: 64, N: 10, K: 64},
	}}
}

func exploreSpace(t *testing.T) scalesim.Space {
	t.Helper()
	sp, err := scalesim.ParseSpace("array=8..32:pow2; dataflow=os,ws; bandwidth=10,20")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// frontierBytes renders both frontier reports for byte comparison.
func frontierBytes(t *testing.T, f *scalesim.Frontier) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.CSVReport().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := f.JSONReport().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExploreDeterministicAcrossParallelism is the core determinism bar:
// a fixed seed must yield a byte-identical frontier at any parallelism,
// for every built-in strategy.
func TestExploreDeterministicAcrossParallelism(t *testing.T) {
	topo := exploreTopology()
	cfg := scalesim.DefaultConfig()
	cfg.Energy.Enabled = true
	for _, strat := range []scalesim.SearchStrategy{
		scalesim.GridSearch, scalesim.RandomSearch, scalesim.EvolutionSearch,
	} {
		t.Run(string(strat), func(t *testing.T) {
			var snaps [][]byte
			for _, par := range []int{1, 4} {
				f, err := scalesim.Explore(context.Background(), cfg, topo, exploreSpace(t),
					scalesim.WithExploreObjectives(scalesim.CyclesObjective(), scalesim.EnergyObjective()),
					scalesim.WithExploreStrategy(strat),
					scalesim.WithExploreBudget(10),
					scalesim.WithExploreBatchSize(4),
					scalesim.WithExploreSeed(99),
					scalesim.WithExploreParallelism(par),
				)
				if err != nil {
					t.Fatal(err)
				}
				if f.Evaluated == 0 || len(f.Points) == 0 {
					t.Fatalf("empty exploration: %+v", f)
				}
				snaps = append(snaps, frontierBytes(t, f))
			}
			if !bytes.Equal(snaps[0], snaps[1]) {
				t.Errorf("frontier differs between parallelism 1 and 4:\n%s\n---\n%s", snaps[0], snaps[1])
			}
		})
	}
}

// TestExploreFrontierAgainstBruteForce exhausts a small space with the
// grid strategy, re-simulates every candidate independently through Run,
// and checks the frontier equals the brute-force Pareto set of the full
// objective table.
func TestExploreFrontierAgainstBruteForce(t *testing.T) {
	topo := exploreTopology()
	cfg := scalesim.DefaultConfig()
	cfg.Energy.Enabled = true
	space := exploreSpace(t)
	objs := []scalesim.Objective{
		scalesim.CyclesObjective(), scalesim.EnergyObjective(), scalesim.UtilizationObjective(),
	}
	f, err := scalesim.Explore(context.Background(), cfg, topo, space,
		scalesim.WithExploreObjectives(objs...),
		scalesim.WithExploreStrategy(scalesim.GridSearch),
		scalesim.WithExploreBudget(1000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if int64(f.Evaluated) != space.Size() {
		t.Fatalf("grid evaluated %d of %d points", f.Evaluated, space.Size())
	}

	// Batch size must not change the outcome.
	f2, err := scalesim.Explore(context.Background(), cfg, topo, space,
		scalesim.WithExploreObjectives(objs...),
		scalesim.WithExploreStrategy(scalesim.GridSearch),
		scalesim.WithExploreBudget(1000),
		scalesim.WithExploreBatchSize(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frontierBytes(t, f), frontierBytes(t, f2)) {
		t.Error("frontier depends on batch size")
	}

	// Re-simulate every frontier config and verify the recorded raw
	// objective values.
	for _, p := range f.Points {
		res, err := scalesim.New(p.Config).Run(context.Background(), topo)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i, obj := range objs {
			if got := obj.Fn(res); got != p.Objectives[i] {
				t.Errorf("%s: %s = %v recorded, %v re-simulated", p.Name, obj.Name, p.Objectives[i], got)
			}
		}
	}

	// Every frontier point must be non-dominated against the whole
	// exhaustively evaluated space, and every non-dominated point must be
	// on the frontier. Enumerate the space through a third exploration
	// that records every candidate label via progress, then re-simulate
	// each independently (configForLabel re-applies the axes by hand).
	var mu sync.Mutex
	labels := map[string]bool{}
	_, err = scalesim.Explore(context.Background(), cfg, topo, space,
		scalesim.WithExploreObjectives(objs...),
		scalesim.WithExploreStrategy(scalesim.GridSearch),
		scalesim.WithExploreBudget(1000),
		scalesim.WithExploreProgress(func(p scalesim.ExploreProgress) {
			mu.Lock()
			labels[p.Point] = true
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(labels)) != space.Size() {
		t.Fatalf("progress saw %d distinct points, want %d", len(labels), space.Size())
	}
	frontierNames := map[string]bool{}
	for _, p := range f.Points {
		frontierNames[p.Name] = true
	}
	// Independent oracle pass over the full space via fresh runs.
	type fullEval struct {
		name string
		keys []float64
	}
	var table []fullEval
	for label := range labels {
		pcfg := configForLabel(t, cfg, label)
		res, err := scalesim.New(pcfg).Run(context.Background(), topo)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]float64, len(objs))
		for i, obj := range objs {
			v := obj.Fn(res)
			if obj.Maximize {
				v = -v
			}
			keys[i] = v
		}
		table = append(table, fullEval{name: label, keys: keys})
	}
	dominates := func(a, b []float64) bool {
		better := false
		for i := range a {
			if a[i] > b[i] {
				return false
			}
			if a[i] < b[i] {
				better = true
			}
		}
		return better
	}
	for _, e := range table {
		dominated := false
		for _, d := range table {
			if dominates(d.keys, e.keys) {
				dominated = true
				break
			}
		}
		if dominated && frontierNames[e.name] {
			t.Errorf("frontier point %s is dominated", e.name)
		}
		if !dominated && !frontierNames[e.name] {
			t.Errorf("non-dominated point %s missing from frontier", e.name)
		}
	}
}

// configForLabel rebuilds a candidate Config from its "axis=value" label —
// an independent re-application for the oracle test.
func configForLabel(t *testing.T, base scalesim.Config, label string) scalesim.Config {
	t.Helper()
	cfg := base
	cfg.RunName = label
	for _, kv := range strings.Split(label, ",") {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			t.Fatalf("bad label %q", label)
		}
		switch name {
		case "array":
			var v int
			fmt.Sscanf(val, "%d", &v)
			cfg.ArrayRows, cfg.ArrayCols = v, v
		case "dataflow":
			switch val {
			case "os":
				cfg.Dataflow = scalesim.OutputStationary
			case "ws":
				cfg.Dataflow = scalesim.WeightStationary
			case "is":
				cfg.Dataflow = scalesim.InputStationary
			}
		case "bandwidth":
			var v int
			fmt.Sscanf(val, "%d", &v)
			cfg.BandwidthWords = v
		default:
			t.Fatalf("unexpected axis %q in label %q", name, label)
		}
	}
	return cfg
}

// TestExploreBudget pins the evaluation bound: the search stops at exactly
// the budget even when the space is larger.
func TestExploreBudget(t *testing.T) {
	topo := exploreTopology()
	for _, strat := range []scalesim.SearchStrategy{
		scalesim.GridSearch, scalesim.RandomSearch, scalesim.EvolutionSearch,
	} {
		f, err := scalesim.Explore(context.Background(), scalesim.DefaultConfig(), topo, exploreSpace(t),
			scalesim.WithExploreStrategy(strat),
			scalesim.WithExploreBudget(5),
			scalesim.WithExploreBatchSize(2),
			scalesim.WithExploreSeed(3),
		)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if f.Evaluated != 5 {
			t.Errorf("%s: evaluated %d, want exactly 5", strat, f.Evaluated)
		}
	}
}

// TestExploreCancel cancels mid-search and expects a clean partial
// frontier plus the context error.
func TestExploreCancel(t *testing.T) {
	topo := exploreTopology()
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	f, err := scalesim.Explore(ctx, scalesim.DefaultConfig(), topo, exploreSpace(t),
		scalesim.WithExploreBudget(12),
		scalesim.WithExploreBatchSize(2),
		scalesim.WithExploreProgress(func(p scalesim.ExploreProgress) {
			if p.Evaluated >= 2 {
				once.Do(cancel)
			}
		}),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if f == nil {
		t.Fatal("cancelled explore returned nil frontier")
	}
	if f.Evaluated >= 12 {
		t.Errorf("evaluated %d, expected an early stop", f.Evaluated)
	}
}

// TestExploreInfeasibleCandidates drives the search into configurations
// that fail validation and expects them excluded, not fatal.
func TestExploreInfeasibleCandidates(t *testing.T) {
	bad, err := scalesim.IntRangeAxis("word_bytes", 0, 4, 4, func(c *scalesim.Config, v int) {
		c.WordBytes = v // 0 fails Validate
	})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := scalesim.Pow2Axis("array", 16, 32, func(c *scalesim.Config, v int) {
		c.ArrayRows, c.ArrayCols = v, v
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := scalesim.Explore(context.Background(), scalesim.DefaultConfig(), exploreTopology(),
		scalesim.Space{bad, arr},
		scalesim.WithExploreStrategy(scalesim.GridSearch))
	if err != nil {
		t.Fatal(err)
	}
	if f.Evaluated != 4 || f.Infeasible != 2 {
		t.Fatalf("evaluated=%d infeasible=%d, want 4 and 2", f.Evaluated, f.Infeasible)
	}
	for _, p := range f.Points {
		if p.Config.WordBytes == 0 {
			t.Errorf("infeasible config on the frontier: %s", p.Name)
		}
	}
}

// TestExploreSharedCacheAcrossGenerations checks that explorations sharing
// a cache reuse each other's layer simulations, counted by the cache
// itself: RunCacheStats also counts in-run repeats of a shape as hits, so
// a check on the frontier's stats alone would pass with no reuse at all.
// Candidates never share a configuration, so the first exploration only
// fills the cache; the second is served entirely from it.
func TestExploreSharedCacheAcrossGenerations(t *testing.T) {
	topo := exploreTopology()
	cache := scalesim.NewCache(0, 0)
	run := func() *scalesim.Frontier {
		f, err := scalesim.Explore(context.Background(), scalesim.DefaultConfig(), topo, exploreSpace(t),
			scalesim.WithExploreStrategy(scalesim.GridSearch),
			scalesim.WithExploreCache(cache),
		)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	first := run()
	filled := cache.Stats()
	if filled.Hits != 0 || filled.Misses != first.CacheStats.Misses || filled.Misses == 0 {
		t.Errorf("first exploration: cache stats %+v, want 0 hits and one miss per simulated layer (%d)",
			filled, first.CacheStats.Misses)
	}
	second := run()
	if second.CacheStats.Misses != 0 {
		t.Errorf("second exploration simulated %d layers, want 0 (warm shared cache)", second.CacheStats.Misses)
	}
	if hits := cache.Stats().Hits; hits != filled.Misses {
		t.Errorf("second exploration: %d cache hits, want %d (every lookup of the first)", hits, filled.Misses)
	}
	if !bytes.Equal(frontierBytes(t, first), frontierBytes(t, second)) {
		t.Error("warm-cache frontier differs from cold-cache frontier")
	}
}

// TestExploreOptionValidation covers the error paths of Explore itself.
func TestExploreOptionValidation(t *testing.T) {
	topo := exploreTopology()
	cfg := scalesim.DefaultConfig()
	if _, err := scalesim.Explore(context.Background(), cfg, topo, nil); err == nil {
		t.Error("empty space: want error")
	}
	sp := exploreSpace(t)
	if _, err := scalesim.Explore(context.Background(), cfg, topo, sp,
		scalesim.WithExploreObjectives(scalesim.CyclesObjective(), scalesim.CyclesObjective())); err == nil {
		t.Error("duplicate objectives: want error")
	}
	if _, err := scalesim.Explore(context.Background(), cfg, topo, sp,
		scalesim.WithExploreObjectives(scalesim.Objective{Name: "x"})); err == nil {
		t.Error("nil objective fn: want error")
	}
	if _, err := scalesim.Explore(context.Background(), cfg, topo, sp,
		scalesim.WithExploreStrategy("anneal")); err == nil {
		t.Error("unknown strategy: want error")
	}
}

func TestParseObjectives(t *testing.T) {
	objs, err := scalesim.ParseObjectives("cycles, energy,edp,dram,utilization")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 5 || !objs[4].Maximize {
		t.Fatalf("parsed %d objectives, last maximize=%v", len(objs), objs[len(objs)-1].Maximize)
	}
	if _, err := scalesim.ParseObjectives("latency"); err == nil {
		t.Error("unknown objective: want error")
	}
	if _, err := scalesim.ParseObjectives(""); err == nil {
		t.Error("empty list: want error")
	}
}

// TestWithSweepProgress pins the point-level progress satellite: one
// callback per point, Done counting up, names and totals filled in.
func TestWithSweepProgress(t *testing.T) {
	topo := exploreTopology()
	var points []scalesim.SweepPoint
	for _, arr := range []int{8, 16, 32} {
		cfg := scalesim.DefaultConfig()
		cfg.ArrayRows, cfg.ArrayCols = arr, arr
		points = append(points, scalesim.SweepPoint{
			Name: fmt.Sprintf("%dx%d", arr, arr), Config: cfg, Topology: topo,
		})
	}
	var mu sync.Mutex
	var got []scalesim.SweepPointProgress
	_, err := scalesim.Sweep(context.Background(), points,
		scalesim.WithParallelism(2),
		scalesim.WithSweepProgress(func(p scalesim.SweepPointProgress) {
			mu.Lock()
			got = append(got, p)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d callbacks, want 3", len(got))
	}
	seenNames := map[string]bool{}
	for i, p := range got {
		if p.Done != i+1 {
			t.Errorf("callback %d: Done = %d, want %d", i, p.Done, i+1)
		}
		if p.Total != 3 || p.Point == "" || p.Err != nil {
			t.Errorf("callback %d: %+v", i, p)
		}
		seenNames[p.Point] = true
	}
	if len(seenNames) != 3 {
		t.Errorf("point names not distinct: %v", seenNames)
	}
}

// TestSummaryDerivedMetrics checks the shared metric definitions satellite
// at the API level (unit tests for Derive live in internal/report).
func TestSummaryDerivedMetrics(t *testing.T) {
	cfg := scalesim.DefaultConfig()
	cfg.Energy.Enabled = true
	topo := exploreTopology()
	res, err := scalesim.New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	var wantMACs int64
	for _, l := range res.Layers {
		wantMACs += int64(l.M) * int64(l.N) * int64(l.K)
	}
	if s.TotalMACs != wantMACs {
		t.Errorf("TotalMACs = %d, want %d", s.TotalMACs, wantMACs)
	}
	// Result.TotalEnergyMJ sums per-layer mJ while the summary converts the
	// pJ total once, so allow the last-ulp association difference.
	wantEDP := float64(res.TotalCycles()) * res.TotalEnergyMJ()
	if diff := (s.EDP - wantEDP) / wantEDP; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("EDP = %v, want cycles×energy = %v", s.EDP, wantEDP)
	}
	if s.EffectiveTOPS <= 0 {
		t.Errorf("EffectiveTOPS = %v, want > 0 with a configured clock", s.EffectiveTOPS)
	}
	secs := float64(s.TotalCycles) / (cfg.Energy.FrequencyMHz * 1e6)
	wantTOPS := 2 * float64(wantMACs) / secs * 1e-12
	if diff := s.EffectiveTOPS - wantTOPS; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("EffectiveTOPS = %v, want %v", s.EffectiveTOPS, wantTOPS)
	}
	var wantBytes int64
	for _, l := range res.Layers {
		wantBytes += (l.DRAMReadWords + l.DRAMWriteWords) * int64(cfg.WordBytes)
	}
	if s.TotalDRAMBytes != wantBytes {
		t.Errorf("TotalDRAMBytes = %d, want %d", s.TotalDRAMBytes, wantBytes)
	}
	if want := float64(wantBytes) / float64(wantMACs); s.DRAMBytesPerMAC != want {
		t.Errorf("DRAMBytesPerMAC = %v, want %v", s.DRAMBytesPerMAC, want)
	}
	if s.AvgUtilization <= 0 || s.AvgUtilization > 1 {
		t.Errorf("AvgUtilization = %v, want in (0, 1]", s.AvgUtilization)
	}
}

// FuzzParseObjectives feeds arbitrary objective lists to ParseObjectives.
// It must never panic, and a list it accepts must round-trip: the joined
// objective names parse back to the same names and senses.
func FuzzParseObjectives(f *testing.F) {
	for _, seed := range []string{
		"cycles,energy", "edp", "dram_bytes, util", "Cycles,ENERGY_MJ,utilization", "", ",,", "latency",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		objs, err := scalesim.ParseObjectives(s)
		if err != nil {
			return
		}
		names := make([]string, len(objs))
		for i, o := range objs {
			names[i] = o.Name
		}
		again, err := scalesim.ParseObjectives(strings.Join(names, ","))
		if err != nil {
			t.Fatalf("%q parsed, but its names %q do not: %v", s, names, err)
		}
		if len(again) != len(objs) {
			t.Fatalf("%q: %d objectives, after a round trip %d", s, len(objs), len(again))
		}
		for i := range objs {
			if again[i].Name != objs[i].Name || again[i].Maximize != objs[i].Maximize {
				t.Fatalf("%q: objective %d is %+v, after a round trip %+v", s, i, objs[i], again[i])
			}
		}
	})
}
