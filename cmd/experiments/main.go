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
	"os"
	"path/filepath"
	"slices"
	"strings"

	"scalesim/internal/experiments"
)

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

	all := experiments.All()
	if *list || *exp == "" {
		slices.SortFunc(all, func(a, b experiments.Experiment) int { return strings.Compare(a.Name, b.Name) })
		for _, e := range all {
			fmt.Printf("%-14s %s\n", e.Name, e.Desc)
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
			if !slices.ContainsFunc(all, func(e experiments.Experiment) bool { return e.Name == name }) {
				return fmt.Errorf("unknown experiment %q (see -list)", name)
			}
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for _, e := range all {
		if !runAll && !slices.Contains(want, e.Name) {
			continue
		}
		path := filepath.Join(*outDir, e.Name+".csv")
		fmt.Printf("running %s ...\n", e.Name)
		if err := writeExperiment(path, e); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// writeExperiment runs e into the CSV file at path, its note to stdout.
func writeExperiment(path string, e experiments.Experiment) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.Run(f, os.Stdout); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
