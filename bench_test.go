package scalesim_test

// Benchmarks for the cheap paper experiments (Figs. 7 and 8, Table III),
// plus ablation benches for the design choices docs/ARCHITECTURE.md calls
// out. They are a micro-profiling tool with no baseline file and no gate of
// their own; end-to-end performance is judged by bash benchmarks/run.sh. Run
// with
//
//	go test -bench=. -benchmem
//
// Every experiment's paper grid runs in cmd/experiments, whose
// TestPaperGoldens pins its output.

import (
	"context"
	"fmt"
	"io"
	"slices"
	"testing"

	"scalesim"
	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/experiments"
	"scalesim/internal/layout"
	"scalesim/internal/sram"
	"scalesim/internal/systolic"
)

// benchExperiment runs the named paper experiment, CSV and note into
// io.Discard.
func benchExperiment(b *testing.B, name string) {
	all := experiments.All()
	i := slices.IndexFunc(all, func(e experiments.Experiment) bool { return e.Name == name })
	if i < 0 {
		b.Fatalf("no experiment %q", name)
	}
	for b.Loop() {
		if err := all[i].Run(io.Discard, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7SparseStorage(b *testing.B) { benchExperiment(b, "fig7") }

func BenchmarkFig8BlockSize(b *testing.B) { benchExperiment(b, "fig8") }

func BenchmarkTable3SystemStates(b *testing.B) { benchExperiment(b, "table3") }

// --- Ablations ---

// benchMemoryRun replays one mid-size GEMM against one DDR4-2400 channel
// with a 64-entry queue. It fails outright if the event engine reports
// zero skipped cycles: on a memory-bound config like this one,
// cycle-skipping is the engine's core perf contract (mirroring the
// cache-hit assertion in BenchmarkExploreCached). The cost of attaching a
// span to this replay is pinned by count, not time, in
// TestObserveAttachedMemoryReplayOverhead.
func benchMemoryRun(b *testing.B) {
	b.Helper()
	g := systolic.Gemm{M: 256, N: 128, K: 256}
	for i := 0; i < b.N; i++ {
		s, err := sram.BuildSchedule(config.WeightStationary, 32, 32, g, sram.ScheduleOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sys, err := dram.New(dram.DDR4_2400(), dram.Options{Channels: 1, QueueDepth: 64})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sram.Simulate(s, sys, sram.Options{MaxRequestsPerCycle: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.SkippedCycles == 0 {
			b.Fatal("event engine skipped zero cycles on a memory-bound config")
		}
		b.ReportMetric(float64(res.TotalCycles), "sim_cycles")
		b.ReportMetric(res.DRAM.RowHitRate(), "row_hit_rate")
		b.ReportMetric(float64(res.SkippedCycles), "skipped_cycles")
	}
}

func BenchmarkDRAMReplay(b *testing.B) { benchMemoryRun(b) }

// BenchmarkLayoutNaiveVsOptimized is the layout-choice ablation: Fig. 12's
// grid analyzed under the stream-natural layout the simulator picks by
// default and under a naive row-major layout (the layout-ablation
// experiment).
func BenchmarkLayoutNaiveVsOptimized(b *testing.B) {
	b.Run("optimized", func(b *testing.B) { benchExperiment(b, "fig12") })
	b.Run("naive", func(b *testing.B) { benchExperiment(b, "layout-ablation") })
}

// BenchmarkDemandStream measures the production demand-summary path: the
// closed-form fold schedule's Stats, which replaced per-cycle enumeration
// for dense layers. The per-cycle stream is BenchmarkDemandStreamOracle.
func BenchmarkDemandStream(b *testing.B) {
	g := systolic.Gemm{M: 512, N: 512, K: 512}
	for _, df := range config.Dataflows() {
		b.Run(df.String(), func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				fs, err := systolic.NewFoldSchedule(df, 32, 32, g)
				if err != nil {
					b.Fatal(err)
				}
				sink += fs.Stats().IfmapReads
			}
			_ = sink
		})
	}
}

// BenchmarkDemandStreamOracle measures the production per-cycle demand
// stream (systolic.Stream: the fold schedule's Materialize) that the SRAM
// trace writer and Table IV's baseline drive. Its name is kept so
// results/BENCH_* pairs taken across commits measure the same call.
func BenchmarkDemandStreamOracle(b *testing.B) {
	g := systolic.Gemm{M: 512, N: 512, K: 512}
	for _, df := range config.Dataflows() {
		b.Run(df.String(), func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				err := systolic.Stream(df, 32, 32, g, func(d *systolic.Demand) bool {
					sink += int64(d.Total())
					return true
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			_ = sink
		})
	}
}

// BenchmarkLayoutAnalyze measures one layer's bank-conflict analysis on the
// closed-form path (fold schedule + AnalyzeSchedule), the unit of work the
// layout stage performs per uncached layer.
func BenchmarkLayoutAnalyze(b *testing.B) {
	g := systolic.Gemm{M: 512, N: 512, K: 512}
	lc := layout.Config{Banks: 8, PortsPerBank: 2, TotalBandwidth: 64}
	for _, df := range config.Dataflows() {
		b.Run(df.String(), func(b *testing.B) {
			fs, err := systolic.NewFoldSchedule(df, 32, 32, g)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				mk := func() *layout.Analyzer {
					a, err := layout.NewAnalyzer(lc)
					if err != nil {
						b.Fatal(err)
					}
					return a
				}
				ifa, fla, ofa := mk(), mk(), mk()
				layout.AnalyzeSchedule(fs, ifa, fla, ofa, true)
				if ifa.Groups == 0 {
					b.Fatal("no groups analyzed")
				}
			}
		})
	}
}

// BenchmarkFoldSchedule measures building and walking the closed-form fold
// schedule itself.
func BenchmarkFoldSchedule(b *testing.B) {
	g := systolic.Gemm{M: 512, N: 512, K: 512}
	for _, df := range config.Dataflows() {
		b.Run(df.String(), func(b *testing.B) {
			var sink int64
			for i := 0; i < b.N; i++ {
				fs, err := systolic.NewFoldSchedule(df, 32, 32, g)
				if err != nil {
					b.Fatal(err)
				}
				fs.ForEachFold(func(f *systolic.FoldInfo) bool {
					sink += int64(len(f.Patterns))
					return true
				})
			}
			_ = sink
		})
	}
}

// BenchmarkEndToEnd runs the public API on ResNet-18 with energy enabled.
func BenchmarkEndToEnd(b *testing.B) {
	cfg := scalesim.DefaultConfig()
	cfg.Energy.Enabled = true
	topo, err := scalesim.BuiltinTopology("resnet18")
	if err != nil {
		b.Fatal(err)
	}
	sim := scalesim.New(cfg)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(ctx, topo, scalesim.WithParallelism(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunParallelism measures the layer worker pool on a multi-layer
// topology with the cycle-accurate memory model enabled — the wall-clock
// win of the parallel engine over the old sequential facade.
func BenchmarkRunParallelism(b *testing.B) {
	cfg := scalesim.DefaultConfig()
	cfg.Memory.Enabled = true
	topo, err := scalesim.BuiltinTopology("alexnet")
	if err != nil {
		b.Fatal(err)
	}
	topo = topo.Sub(1, 7) // six layers of mixed intensity
	sim := scalesim.New(cfg)
	ctx := context.Background()
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(ctx, topo, scalesim.WithParallelism(par)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// dramSweepPoints builds the cache benchmark scenario: a DRAM-only sweep
// (only Memory.Channels varies) over a ResNet-style repeated-shape
// topology. Without a cache every point simulates every layer; with one,
// each point simulates each distinct shape once and the repeated blocks
// are served from cache.
func dramSweepPoints() []scalesim.SweepPoint {
	topo := &scalesim.Topology{Name: "blocks"}
	for i := 0; i < 6; i++ {
		topo.Layers = append(topo.Layers, scalesim.Layer{
			Name: fmt.Sprintf("block%d", i), Kind: scalesim.Conv,
			IfmapH: 14, IfmapW: 14, FilterH: 3, FilterW: 3,
			Channels: 32, NumFilters: 32, Stride: 1,
		})
	}
	var points []scalesim.SweepPoint
	for _, ch := range []int{1, 2, 4} {
		cfg := scalesim.DefaultConfig()
		cfg.Memory.Enabled = true
		cfg.Memory.Channels = ch
		points = append(points, scalesim.SweepPoint{
			Name: fmt.Sprintf("%dch", ch), Config: cfg, Topology: topo,
		})
	}
	return points
}

// BenchmarkSweepUncached is the baseline for BenchmarkSweepCached: the
// same DRAM-channel sweep with no cache attached.
func BenchmarkSweepUncached(b *testing.B) {
	points := dramSweepPoints()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scalesim.Sweep(ctx, points, scalesim.WithParallelism(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCached runs the DRAM-channel sweep with a cold cache per
// iteration. Each point simulates its repeated conv shape once with or
// without a cache, so the gap to BenchmarkSweepUncached is what a cold
// cache costs or saves within one sweep.
func BenchmarkSweepCached(b *testing.B) {
	points := dramSweepPoints()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := scalesim.NewCache(0, 0)
		if _, err := scalesim.Sweep(ctx, points, scalesim.WithParallelism(1),
			scalesim.WithCache(cache)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCachedWarm reuses one cache across iterations — the
// steady state of an interactive design-space exploration, where every
// layer of every point is a hit.
func BenchmarkSweepCachedWarm(b *testing.B) {
	points := dramSweepPoints()
	ctx := context.Background()
	cache := scalesim.NewCache(0, 0)
	if _, err := scalesim.Sweep(ctx, points, scalesim.WithCache(cache)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scalesim.Sweep(ctx, points, scalesim.WithParallelism(1),
			scalesim.WithCache(cache)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunRepeatedShapes measures Run itself on the repeated-shape
// topology, with a cold cache and without one. Both simulate the repeated
// conv shape once, so the gap is the cold cache's own cost.
func BenchmarkRunRepeatedShapes(b *testing.B) {
	topo := dramSweepPoints()[0].Topology
	cfg := scalesim.DefaultConfig()
	cfg.Memory.Enabled = true
	ctx := context.Background()
	b.Run("uncached", func(b *testing.B) {
		sim := scalesim.New(cfg)
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(ctx, topo, scalesim.WithParallelism(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim := scalesim.New(cfg, scalesim.WithCache(scalesim.NewCache(0, 0)))
			if _, err := sim.Run(ctx, topo, scalesim.WithParallelism(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExploreCached repeats a small evolutionary design-space search
// on the repeated-shape topology against one shared layer-result cache,
// warmed by a first search before the timer starts. Each candidate looks
// up its one distinct conv shape (the five sibling blocks are copies)
// while the search walks DRAM knobs. The benchmark fails outright unless
// every lookup is a hit on the shared cache — the reuse WithExploreCache
// exists for. It counts the cache's own lookups: a search's RunCacheStats
// also counts in-run repeats as hits.
func BenchmarkExploreCached(b *testing.B) {
	topo := dramSweepPoints()[0].Topology
	space, err := scalesim.ParseSpace("channels=1..4:pow2; dram_tech=DDR4,HBM2")
	if err != nil {
		b.Fatal(err)
	}
	cfg := scalesim.DefaultConfig()
	ctx := context.Background()
	cache := scalesim.NewCache(0, 0)
	explore := func() *scalesim.Frontier {
		f, err := scalesim.Explore(ctx, cfg, topo, space,
			scalesim.WithExploreObjectives(scalesim.CyclesObjective(), scalesim.DRAMTrafficObjective()),
			scalesim.WithExploreStrategy(scalesim.EvolutionSearch),
			scalesim.WithExploreBudget(6),
			scalesim.WithExploreBatchSize(2), // 3 generations
			scalesim.WithExploreSeed(1),
			scalesim.WithExploreParallelism(1),
			scalesim.WithExploreCache(cache),
		)
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	explore()
	lookups := cache.Stats().Misses
	if lookups == 0 {
		b.Fatal("the warm-up search made no cache lookups")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := cache.Stats()
		f := explore()
		after := cache.Stats()
		if hits := after.Hits - before.Hits; hits != lookups || after.Misses != before.Misses || f.CacheStats.Misses != 0 {
			b.Fatalf("explore search served %d of %d lookups from the shared cache and simulated %d layers",
				hits, lookups, f.CacheStats.Misses)
		}
	}
	b.ReportMetric(float64(lookups), "cache_hits/op")
}

// BenchmarkExploreScreened cracks a 100 000-candidate space with the
// two-phase fidelity search: the whole grid is screened with closed-form
// Analytical evaluations and only the top candidates are promoted to the
// event-driven tier. This is the workload the fidelity ladder exists for
// — the single-tier equivalent would be ~6 000× more event simulations.
func BenchmarkExploreScreened(b *testing.B) {
	topo := &scalesim.Topology{Name: "screen_gemm", Layers: []scalesim.Layer{
		{Name: "fc1", Kind: scalesim.GEMM, M: 128, N: 128, K: 256},
		{Name: "fc2", Kind: scalesim.GEMM, M: 128, N: 64, K: 128},
	}}
	space, err := scalesim.ParseSpace("array_rows=4..103; array_cols=4..103; bandwidth=1..10")
	if err != nil {
		b.Fatal(err)
	}
	if space.Size() != 100_000 {
		b.Fatalf("space size %d, want 100000", space.Size())
	}
	cfg := scalesim.DefaultConfig()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := scalesim.Explore(ctx, cfg, topo, space,
			scalesim.WithExploreObjectives(scalesim.CyclesObjective(), scalesim.UtilizationObjective()),
			scalesim.WithExploreStrategy(scalesim.GridSearch),
			scalesim.WithExploreBudget(100_000),
			scalesim.WithExploreBatchSize(8192),
			scalesim.WithPromoteTopK(16),
		)
		if err != nil {
			b.Fatal(err)
		}
		if f.Screened != 100_000 {
			b.Fatalf("screened %d of 100000 candidates", f.Screened)
		}
		if f.Promoted == 0 || len(f.Points) == 0 {
			b.Fatalf("screening promoted %d candidates, frontier %d", f.Promoted, len(f.Points))
		}
		b.ReportMetric(float64(f.Screened), "screened")
		b.ReportMetric(float64(f.Promoted), "promoted")
	}
}

// BenchmarkAnalyticalMemoryEnergy is one screened candidate in isolation:
// a single Analytical Run of the screen_gemm topology with the memory and
// energy stages on — the per-point kernel of an Explore screen, at a small
// array (4x4: 1024 + 512 folds) and a mid-sized one (53x53: 15 + 6 folds).
// Time and allocations must not grow with the fold count beyond the
// arithmetic itself.
func BenchmarkAnalyticalMemoryEnergy(b *testing.B) {
	topo := &scalesim.Topology{Name: "screen_gemm", Layers: []scalesim.Layer{
		{Name: "fc1", Kind: scalesim.GEMM, M: 128, N: 128, K: 256},
		{Name: "fc2", Kind: scalesim.GEMM, M: 128, N: 64, K: 128},
	}}
	ctx := context.Background()
	for _, arr := range []int{4, 53} {
		b.Run(fmt.Sprintf("%dx%d", arr, arr), func(b *testing.B) {
			cfg := scalesim.DefaultConfig()
			cfg.ArrayRows, cfg.ArrayCols = arr, arr
			cfg.Memory.Enabled, cfg.Energy.Enabled = true, true
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scalesim.New(cfg).Run(ctx, topo,
					scalesim.WithFidelity(scalesim.Analytical), scalesim.WithParallelism(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparseLayoutMemory is the sparse path end to end: one uncached
// Run of 2:4 ResNet-18 (its 12 distinct layer shapes) with the layout and
// event-driven memory stages on. The layout stage must cost closed-form
// arithmetic here as it does for dense layers, and the bytes per run must
// stay near what the replay holds in flight.
func BenchmarkSparseLayoutMemory(b *testing.B) {
	full, err := scalesim.BuiltinTopology("resnet18")
	if err != nil {
		b.Fatal(err)
	}
	topo := &scalesim.Topology{Name: "resnet18_distinct"}
	seen := map[scalesim.Layer]bool{}
	for _, l := range full.WithSparsity(scalesim.Sparsity{N: 2, M: 4}).Layers {
		key := l
		key.Name = ""
		if !seen[key] {
			seen[key] = true
			topo.Layers = append(topo.Layers, l)
		}
	}
	cfg := scalesim.DefaultConfig()
	cfg.Sparsity.Enabled = true
	cfg.Layout.Enabled, cfg.Memory.Enabled = true, true
	sim := scalesim.New(cfg)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(ctx, topo, scalesim.WithParallelism(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep measures the sweep engine fanning one workload across
// array-size variants.
func BenchmarkSweep(b *testing.B) {
	topo, err := scalesim.BuiltinTopology("alexnet")
	if err != nil {
		b.Fatal(err)
	}
	var points []scalesim.SweepPoint
	for _, arr := range []int{16, 32, 64, 128} {
		cfg := scalesim.DefaultConfig()
		cfg.ArrayRows, cfg.ArrayCols = arr, arr
		cfg.Energy.Enabled = true
		points = append(points, scalesim.SweepPoint{
			Name: fmt.Sprintf("%dx%d", arr, arr), Config: cfg, Topology: topo,
		})
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scalesim.Sweep(ctx, points); err != nil {
			b.Fatal(err)
		}
	}
}
