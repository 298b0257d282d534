package scalesim_test

// Runnable examples for the public API. They double as documentation
// (godoc renders them on the symbols they name) and as regression tests:
// CI runs `go test -run Example ./...`, so the expected output keeps them
// compiling and correct.

import (
	"context"
	"fmt"
	"log"

	"scalesim"
)

// A small two-layer GEMM workload keeps example output short and stable.
func exampleTopology() *scalesim.Topology {
	return &scalesim.Topology{Name: "tiny_mlp", Layers: []scalesim.Layer{
		{Name: "fc1", Kind: scalesim.GEMM, M: 64, N: 64, K: 128},
		{Name: "fc2", Kind: scalesim.GEMM, M: 64, N: 10, K: 64},
	}}
}

// ExampleSimulator_Run simulates a workload under the default 32×32
// output-stationary configuration and prints per-layer cycle counts.
func ExampleSimulator_Run() {
	cfg := scalesim.DefaultConfig()
	res, err := scalesim.New(cfg).Run(context.Background(), exampleTopology())
	if err != nil {
		log.Fatal(err)
	}
	for _, lr := range res.Layers {
		fmt.Printf("%s: M=%d N=%d K=%d, %d cycles, %.1f%% utilized\n",
			lr.Layer.Name, lr.M, lr.N, lr.K, lr.TotalCycles, 100*lr.Utilization)
	}
	fmt.Printf("total: %d cycles\n", res.TotalCycles())
	// Output:
	// fc1: M=64 N=64 K=128, 888 cycles, 57.7% utilized
	// fc2: M=64 N=10 K=64, 316 cycles, 12.7% utilized
	// total: 1204 cycles
}

// ExampleSweep fans one workload across two array sizes on the worker
// pool; results come back in input order regardless of completion order.
func ExampleSweep() {
	topo := exampleTopology()
	var points []scalesim.SweepPoint
	for _, arr := range []int{16, 32} {
		cfg := scalesim.DefaultConfig()
		cfg.ArrayRows, cfg.ArrayCols = arr, arr
		points = append(points, scalesim.SweepPoint{
			Name: fmt.Sprintf("%dx%d", arr, arr), Config: cfg, Topology: topo,
		})
	}
	results, err := scalesim.Sweep(context.Background(), points)
	if err != nil {
		log.Fatal(err)
	}
	for _, sr := range results {
		if sr.Err != nil {
			log.Fatal(sr.Err)
		}
		fmt.Printf("%s: %d cycles\n", sr.Point.Name, sr.Result.TotalCycles())
	}
	// Output:
	// 16x16: 3224 cycles
	// 32x32: 1204 cycles
}

// launchStage charges a fixed launch overhead to every layer. Its
// fingerprint names the overhead, so runs with different overheads never
// share a cache entry.
type launchStage struct{ cycles int64 }

func (launchStage) Name() string { return "launch" }

func (s launchStage) CacheFingerprint() string { return fmt.Sprintf("launch/v1/%d", s.cycles) }

func (s launchStage) Apply(_ context.Context, _ *scalesim.StageContext, lr *scalesim.LayerResult) error {
	lr.StallCycles += s.cycles
	lr.TotalCycles += s.cycles
	return nil
}

// ExampleWithStages appends a custom pass to the default pipeline: every
// layer pays a 100-cycle launch overhead on top of the modelled cycles.
func ExampleWithStages() {
	cfg := scalesim.DefaultConfig()
	stages := append(scalesim.DefaultStages(), launchStage{cycles: 100})
	sim := scalesim.New(cfg, scalesim.WithStages(stages...))
	res, err := sim.Run(context.Background(), exampleTopology())
	if err != nil {
		log.Fatal(err)
	}
	for _, lr := range res.Layers {
		fmt.Printf("%s: %d cycles (%d stall)\n", lr.Layer.Name, lr.TotalCycles, lr.StallCycles)
	}
	// Output:
	// fc1: 988 cycles (100 stall)
	// fc2: 416 cycles (100 stall)
}

// ExampleExplore searches a small design space for Pareto-optimal
// configurations: the exhaustive grid strategy here evaluates every
// (array size, dataflow) candidate and keeps the designs where no other
// candidate is both faster and better utilized.
func ExampleExplore() {
	space, err := scalesim.ParseSpace("array=16..32:pow2; dataflow=os,ws")
	if err != nil {
		log.Fatal(err)
	}
	frontier, err := scalesim.Explore(context.Background(),
		scalesim.DefaultConfig(), exampleTopology(), space,
		scalesim.WithExploreObjectives(scalesim.CyclesObjective(), scalesim.UtilizationObjective()),
		scalesim.WithExploreStrategy(scalesim.GridSearch),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evaluated %d candidates, %d on the frontier\n",
		frontier.Evaluated, len(frontier.Points))
	for _, p := range frontier.Points {
		fmt.Printf("%s: %.0f cycles, %.1f%% utilized\n",
			p.Name, p.Objectives[0], 100*p.Objectives[1])
	}
	// Output:
	// evaluated 4 candidates, 2 on the frontier
	// array=32,dataflow=os: 1204 cycles, 45.8% utilized
	// array=16,dataflow=os: 3224 cycles, 68.5% utilized
}

// ExampleWithCache attaches a layer-result cache: a repeated-shape
// topology simulates each distinct shape once, and a second run is served
// entirely from the cache.
func ExampleWithCache() {
	cfg := scalesim.DefaultConfig()
	topo := &scalesim.Topology{Name: "blocks"}
	for i := 0; i < 4; i++ { // four identical ResNet-style blocks
		topo.Layers = append(topo.Layers, scalesim.Layer{
			Name: fmt.Sprintf("block%d", i), Kind: scalesim.Conv,
			IfmapH: 14, IfmapW: 14, FilterH: 3, FilterW: 3,
			Channels: 32, NumFilters: 32, Stride: 1,
		})
	}
	cache := scalesim.NewCache(0, 0) // default bounds
	sim := scalesim.New(cfg, scalesim.WithCache(cache))

	first, err := sim.Run(context.Background(), topo)
	if err != nil {
		log.Fatal(err)
	}
	second, err := sim.Run(context.Background(), topo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first run:  %d simulated, %d from cache\n",
		first.CacheStats.Misses, first.CacheStats.Hits)
	fmt.Printf("second run: %d simulated, %d from cache\n",
		second.CacheStats.Misses, second.CacheStats.Hits)
	fmt.Printf("identical results: %v\n", first.TotalCycles() == second.TotalCycles())
	// Output:
	// first run:  1 simulated, 3 from cache
	// second run: 0 simulated, 4 from cache
	// identical results: true
}
