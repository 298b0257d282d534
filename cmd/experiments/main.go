// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp fig3 -outdir results/
//	experiments -exp fig9,fig10
//	experiments -exp all
//	experiments -list
//
// Each experiment writes <exp>.csv with the rows/series the paper plots.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"scalesim/internal/experiments"
)

type runner struct {
	name string
	desc string
	run  func(w io.Writer) error
}

func allRunners() []runner {
	return []runner{
		{"fig3", "partitioning trade-off: cycles vs memory footprint", func(w io.Writer) error {
			res, err := experiments.RunFig3(experiments.DefaultFig3())
			if err != nil {
				return err
			}
			wins, groups := res.SpatioTemporalWins()
			fmt.Printf("fig3: spatio-temporal beats spatial in %d/%d cycle-optimized groups\n", wins, groups)
			return res.WriteCSV(w)
		}},
		{"fig5", "ResNet-18 total cycles vs on-chip memory at 1:4/2:4/4:4", func(w io.Writer) error {
			pts, err := experiments.RunFig5(experiments.DefaultFig5())
			if err != nil {
				return err
			}
			return experiments.WriteFig5CSV(w, pts)
		}},
		{"fig7", "ResNet-18 filter storage: dense vs 1:4/2:4/3:4", func(w io.Writer) error {
			pts, err := experiments.RunFig7()
			if err != nil {
				return err
			}
			return experiments.WriteFig7CSV(w, pts)
		}},
		{"fig8", "ViT FF compute cycles across array and block sizes", func(w io.Writer) error {
			pts, err := experiments.RunFig8(experiments.DefaultFig8())
			if err != nil {
				return err
			}
			return experiments.WriteFig8CSV(w, pts)
		}},
		{"fig9", "ResNet-18 memory throughput vs DRAM channels", func(w io.Writer) error {
			pts, err := experiments.RunFig9(experiments.DefaultFig9())
			if err != nil {
				return err
			}
			return experiments.WriteFig9CSV(w, pts)
		}},
		{"fig10", "memory stalls vs request queue size (32/128/512)", func(w io.Writer) error {
			pts, err := experiments.RunFig10(experiments.DefaultFig10())
			if err != nil {
				return err
			}
			return experiments.WriteFig10CSV(w, pts)
		}},
		{"fig12", "layout slowdown vs bandwidth/banks, ResNet-18", func(w io.Writer) error {
			pts, err := experiments.RunLayout(experiments.DefaultFig12())
			if err != nil {
				return err
			}
			return experiments.WriteLayoutCSV(w, pts)
		}},
		{"fig13", "layout slowdown vs bandwidth/banks, ViT", func(w io.Writer) error {
			pts, err := experiments.RunLayout(experiments.DefaultFig13())
			if err != nil {
				return err
			}
			return experiments.WriteLayoutCSV(w, pts)
		}},
		{"layout-ablation", "naive vs stream-natural layouts (the paper's motivation)", func(w io.Writer) error {
			p := experiments.DefaultFig12()
			p.NaiveLayout = true
			pts, err := experiments.RunLayout(p)
			if err != nil {
				return err
			}
			return experiments.WriteLayoutCSV(w, pts)
		}},
		{"fig15", "energy across dataflows and array sizes", func(w io.Writer) error {
			pts, err := experiments.RunFig15(experiments.DefaultFig15())
			if err != nil {
				return err
			}
			return experiments.WriteFig15CSV(w, pts)
		}},
		{"table3", "system-state energies (idle/active/power-gated)", func(w io.Writer) error {
			return experiments.WriteTable3CSV(w, experiments.RunTable3(8, 8))
		}},
		{"table4", "simulation-time overhead of each v3 feature", func(w io.Writer) error {
			rows, err := experiments.RunTable4(experiments.DefaultTable4())
			if err != nil {
				return err
			}
			return experiments.WriteTable4CSV(w, rows)
		}},
		{"table5", "latency/energy/EdP for 32², 64², 128² arrays", func(w io.Writer) error {
			p := experiments.DefaultTable5()
			rows, err := experiments.RunTable5(p)
			if err != nil {
				return err
			}
			for _, name := range p.Workloads {
				latency, energy := experiments.Table5Scaling(rows, name)
				fmt.Printf("table5: %s from %d² to %d²: latency ÷%.3f, energy ×%.3f (abstract, vit_base: ÷6.53, ×2.86)\n",
					name, p.Arrays[0], p.Arrays[len(p.Arrays)-1], latency, energy)
			}
			return experiments.WriteTable5CSV(w, rows)
		}},
		{"table6", "single 128² vs 16×32² cores, ws/is ratios", func(w io.Writer) error {
			res, err := experiments.RunTable6(experiments.DefaultTable6())
			if err != nil {
				return err
			}
			return experiments.WriteTable6CSV(w, res)
		}},
		{"dram-dataflow", "WS vs OS with and without DRAM stalls (§IX-B)", func(w io.Writer) error {
			res, err := experiments.RunDataflowDRAM(experiments.DefaultDataflowDRAM())
			if err != nil {
				return err
			}
			fmt.Printf("dram-dataflow: WS compute advantage %.1f%%, OS total advantage %.1f%%\n",
				100*res.ComputeAdvantageWS(), 100*res.TotalAdvantageOS())
			return experiments.WriteDataflowDRAMCSV(w, res)
		}},
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp    = flag.String("exp", "", "comma-separated experiments to run (or 'all')")
		outDir = flag.String("outdir", "results", "output directory")
		list   = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()
	// flag stops at the first non-flag word and drops every flag after it.
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	rs := allRunners()
	if *list || *exp == "" {
		sort.Slice(rs, func(i, j int) bool { return rs[i].name < rs[j].name })
		for _, r := range rs {
			fmt.Printf("%-14s %s\n", r.name, r.desc)
		}
		if *exp == "" && !*list {
			return errors.New("missing -exp")
		}
		return nil
	}

	want := strings.Split(*exp, ",")
	runAll := *exp == "all"
	if !runAll {
		for _, name := range want {
			if !slices.ContainsFunc(rs, func(r runner) bool { return r.name == name }) {
				return fmt.Errorf("unknown experiment %q (see -list)", name)
			}
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for _, r := range rs {
		if !runAll && !slices.Contains(want, r.name) {
			continue
		}
		path := filepath.Join(*outDir, r.name+".csv")
		fmt.Printf("running %s ...\n", r.name)
		if err := writeExperiment(path, r); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// writeExperiment runs r into the CSV file at path.
func writeExperiment(path string, r runner) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.run(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
