// Command scalesim runs the simulator on a configuration and topology and
// writes the SCALE-Sim report CSVs, or explores a design space and writes
// the Pareto frontier.
//
// Usage:
//
//	scalesim -topology resnet18 -outdir ./out
//	scalesim -config tpu.cfg -topology ./my_model.csv -dataflow ws
//	scalesim explore -topology resnet18 \
//	    -space "array=16..128:pow2;dataflow=os,ws,is;channels=1..4:pow2" \
//	    -objectives cycles,energy -strategy random -budget 48 -seed 1 \
//	    -outdir ./out
//	scalesim serve -addr 127.0.0.1:8080 -shards 4 -store ./cache
//	scalesim cache verify -store ./cache
//
// Performance is measured by bash benchmarks/run.sh (-compare for verdicts).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"scalesim"
	"scalesim/internal/config"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "explore":
		err = runExplore(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "serve":
		err = runServe(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "cache":
		err = runCache(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "promcheck":
		err = runPromcheck(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "run":
		err = run(os.Args[2:])
	default:
		err = run(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalesim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("scalesim run", flag.ExitOnError)
	var (
		cfgPath  = fs.String("config", "", "SCALE-Sim .cfg file (default: built-in 32x32 config)")
		topoArg  = fs.String("topology", "", "builtin model name or topology CSV path (required)")
		dataflow = fs.String("dataflow", "", "override dataflow: os, ws or is")
		outDir   = fs.String("outdir", ".", "directory for report CSVs")
		sparsity = fs.String("sparsity", "", "force N:M sparsity on all layers (e.g. 2:4)")
		memory   = fs.Bool("memory", false, "enable the cycle-accurate DRAM model")
		energy   = fs.Bool("energy", false, "enable energy/power estimation")
		layoutF  = fs.Bool("layout", false, "enable data-layout bank-conflict modeling")
		preset   = fs.String("preset", "", "config preset: default, tpu or eyeriss")
		list     = fs.Bool("list", false, "list builtin topologies and exit")
		traces   = fs.Bool("traces", false, "write cycle-accurate SRAM/DRAM trace CSVs")
		traceDir = fs.String("trace", "", "write a Chrome trace-event JSON span trace to this directory (open at ui.perfetto.dev) and print the wall-time profile")
		fidelity = fs.String("fidelity", "", "simulation fidelity: analytical or event (default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// flag stops at the first non-flag word and drops every flag after it.
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	if *list {
		for _, n := range scalesim.BuiltinTopologyNames() {
			fmt.Println(n)
		}
		return nil
	}
	if *topoArg == "" {
		fs.Usage()
		return fmt.Errorf("missing -topology")
	}

	cfg, err := baseConfig(*preset, *cfgPath, *memory, *energy, *layoutF)
	if err != nil {
		return err
	}
	if *dataflow != "" {
		df, err := config.ParseDataflow(*dataflow)
		if err != nil {
			return err
		}
		cfg.Dataflow = df
	}

	topo, err := loadTopology(*topoArg)
	if err != nil {
		return err
	}
	if *sparsity != "" {
		sp, err := scalesim.ParseSparsity(*sparsity)
		if err != nil {
			return err
		}
		topo = topo.WithSparsity(sp)
		cfg.Sparsity.Enabled = true
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fid, err := scalesim.ParseFidelity(*fidelity)
	if err != nil {
		return err
	}

	sim := scalesim.New(cfg)
	runOpts := []scalesim.Option{scalesim.WithFidelity(fid)}
	if *traceDir != "" {
		runOpts = append(runOpts, scalesim.WithTrace(*traceDir))
	}
	var res *scalesim.Result
	if *traces {
		res, err = sim.WriteTraces(ctx, topo, filepath.Join(*outDir, "traces"), runOpts...)
	} else {
		res, err = sim.Run(ctx, topo, runOpts...)
	}
	if err != nil {
		return err
	}
	if p := res.Profile(); p != nil {
		fmt.Print(p)
		fmt.Printf("trace written to %s\n", *traceDir)
	}

	if err := res.Reports().WriteAll(*outDir); err != nil {
		return err
	}
	fmt.Println(res.Summary())
	fmt.Printf("reports written to %s\n", *outDir)
	return nil
}

func loadTopology(arg string) (*scalesim.Topology, error) {
	for _, n := range scalesim.BuiltinTopologyNames() {
		if n == arg {
			return scalesim.BuiltinTopology(arg)
		}
	}
	return scalesim.LoadTopology(arg)
}

// baseConfig resolves the configuration flags shared by both subcommands:
// a preset (overridden by an explicit -config file) plus the model-enable
// flags, which OR into whatever the file selected.
func baseConfig(preset, cfgPath string, memory, energy, layout bool) (scalesim.Config, error) {
	cfg, err := config.Preset(preset)
	if err != nil {
		return cfg, err
	}
	if cfgPath != "" {
		cfg, err = scalesim.LoadConfig(cfgPath)
		if err != nil {
			return cfg, err
		}
	}
	cfg.Memory.Enabled = cfg.Memory.Enabled || memory
	cfg.Energy.Enabled = cfg.Energy.Enabled || energy
	cfg.Layout.Enabled = cfg.Layout.Enabled || layout
	return cfg, nil
}

// runExplore is the `scalesim explore` subcommand: search a design space
// and write FRONTIER.csv / FRONTIER.json.
func runExplore(args []string) error {
	fs := flag.NewFlagSet("scalesim explore", flag.ExitOnError)
	var (
		cfgPath    = fs.String("config", "", "SCALE-Sim .cfg file for the base configuration")
		preset     = fs.String("preset", "", "base config preset: default, tpu or eyeriss")
		topoArg    = fs.String("topology", "", "builtin model name or topology CSV path (required)")
		space      = fs.String("space", "", "semicolon-separated axis specs, e.g. \"array=16..128:pow2;dataflow=os,ws,is\" (required)")
		objectives = fs.String("objectives", "cycles", "comma-separated objectives: cycles, energy, edp, dram, utilization")
		strategy   = fs.String("strategy", "auto", "search strategy: grid, random, evolve or auto")
		budget     = fs.Int("budget", 64, "maximum candidate evaluations")
		seed       = fs.Int64("seed", 1, "random seed for the stochastic strategies")
		batch      = fs.Int("batch", 8, "candidates per evaluation batch (generation size)")
		par        = fs.Int("parallelism", 0, "worker pool width per batch (0 = GOMAXPROCS)")
		fidelity   = fs.String("fidelity", "", "accurate simulation fidelity: analytical or event (default)")
		promote    = fs.Int("promote", 0, "screen the space analytically, then promote the front plus the top K candidates to the accurate tier")
		promoteMg  = fs.Float64("promote-margin", 0, "with screening, also promote candidates within this relative margin of the analytical front (e.g. 0.1)")
		outDir     = fs.String("outdir", ".", "directory for FRONTIER.csv and FRONTIER.json")
		progress   = fs.Bool("progress", false, "print per-candidate progress to stderr")
		memory     = fs.Bool("memory", false, "enable the cycle-accurate DRAM model in the base config")
		energyF    = fs.Bool("energy", false, "enable energy/power estimation in the base config")
		layoutF    = fs.Bool("layout", false, "enable data-layout bank-conflict modeling in the base config")
		axes       = fs.Bool("axes", false, "list the axis knobs -space understands and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *axes {
		for _, n := range scalesim.KnownAxisNames() {
			fmt.Println(n)
		}
		return nil
	}
	if *topoArg == "" || *space == "" {
		fs.Usage()
		return fmt.Errorf("explore: missing -topology or -space")
	}
	strat, err := scalesim.ParseSearchStrategy(*strategy)
	if err != nil {
		return err
	}

	cfg, err := baseConfig(*preset, *cfgPath, *memory, *energyF, *layoutF)
	if err != nil {
		return err
	}

	sp, err := scalesim.ParseSpace(*space)
	if err != nil {
		return err
	}
	objs, err := scalesim.ParseObjectives(*objectives)
	if err != nil {
		return err
	}
	// Energy-derived objectives are meaningless with the energy model off;
	// turn it on rather than ranking identical zeros.
	for _, o := range objs {
		if (o.Name == "energy_mj" || o.Name == "edp") && !cfg.Energy.Enabled {
			fmt.Fprintln(os.Stderr, "note: enabling energy modeling for the", o.Name, "objective")
			cfg.Energy.Enabled = true
		}
	}

	topo, err := loadTopology(*topoArg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fid, err := scalesim.ParseFidelity(*fidelity)
	if err != nil {
		return err
	}

	opts := []scalesim.ExploreOption{
		scalesim.WithExploreObjectives(objs...),
		scalesim.WithExploreStrategy(strat),
		scalesim.WithExploreBudget(*budget),
		scalesim.WithExploreBatchSize(*batch),
		scalesim.WithExploreSeed(*seed),
		scalesim.WithExploreParallelism(*par),
		scalesim.WithExploreFidelity(fid),
		scalesim.WithPromoteTopK(*promote),
		scalesim.WithPromoteMargin(*promoteMg),
	}
	if *progress {
		opts = append(opts, scalesim.WithExploreProgress(func(p scalesim.ExploreProgress) {
			status := "ok"
			if p.Err != nil {
				status = "infeasible: " + p.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] gen %d %s %s (%s)\n", p.Evaluated, p.Budget, p.Generation, p.Fidelity, p.Point, status)
		}))
	}
	frontier, err := scalesim.Explore(ctx, cfg, topo, sp, opts...)
	if err != nil {
		return err
	}

	fmt.Printf("strategy=%s seed=%d fidelity=%s evaluated=%d infeasible=%d", frontier.Strategy,
		frontier.Seed, frontier.Fidelity, frontier.Evaluated, frontier.Infeasible)
	if frontier.Screened > 0 {
		fmt.Printf(" screened=%d promoted=%d", frontier.Screened, frontier.Promoted)
	}
	fmt.Printf(" cache_hits=%d cache_misses=%d\n",
		frontier.CacheStats.Hits, frontier.CacheStats.Misses)
	fmt.Printf("frontier: %d non-dominated point(s)\n", len(frontier.Points))
	for _, p := range frontier.Points {
		fmt.Printf("  %s:", p.Name)
		for i, name := range frontier.ObjectiveNames {
			fmt.Printf(" %s=%.6g", name, p.Objectives[i])
		}
		fmt.Println()
	}
	if err := frontier.WriteAll(*outDir); err != nil {
		return err
	}
	fmt.Printf("frontier written to %s\n", filepath.Join(*outDir, scalesim.FrontierCSVFile))
	return nil
}
