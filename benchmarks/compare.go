package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// runChild re-executes this binary for one run of one workload, passes its
// report through, and parses the contract's final line.
func runChild(o options, workload string, seed uint64, trace int) (result, error) {
	var r result
	self, err := os.Executable()
	if err != nil {
		return r, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64), "-workdir", o.workdir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(out.Bytes()) //nolint:errcheck // best-effort context for the error
		return r, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	last := lines[len(lines)-1]
	// The report above the JSON line is for the reader.
	os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n"))) //nolint:errcheck
	fmt.Println()
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("last output line is not a result: %w", err)
	}
	if !r.Correct {
		fmt.Printf("%s: INCORRECT: %d of %d operations failed\n", workload, r.Failed, r.Attempted)
	}
	return r, nil
}

// verdict judges one (workload, metric) pair of a comparison.
//
// End-to-end metrics follow the contract: b regressed when its median is
// worse than a's by more than the metric's bound. When either side's own
// run-to-run spread exceeds the bound the pair is unresolved, unless every
// run of b reads better than every run of a. A median better by more than
// the bound reads improved; claiming a gain takes paired runs, which this
// verdict does not replace. Exact metrics - simulated statistics and counts
// - must be identical.
func verdict(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	if d.exact {
		if ma == mb {
			return "identical"
		}
		return "DIFFERS"
	}
	if d.Bound == 0 {
		return "" // an ungated per-layer timing: reported, not judged
	}
	worse := func(x, y float64) bool { // x is worse than y
		if d.Better == higher {
			return x < y
		}
		return x > y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !worse(y, x) {
				allBetter = false
			}
		}
	}
	change := (mb - ma) / ma
	if d.Better == higher {
		change = -change
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		if allBetter {
			return "improved"
		}
		return "unresolved"
	case change > d.Bound:
		return "REGRESSED"
	case change < -d.Bound:
		return "improved"
	default:
		return "ok"
	}
}

// compareFiles prints a verdict per (workload, metric) for two -json
// files and fails when any pair regressed or an exact metric differs.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two -json files, got %d arguments", len(paths))
	}
	var files [2]suiteFile
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := files[0], files[1]
	fmt.Fprintf(w, "a: %s commit %s, %d runs from seed %d\nb: %s commit %s, %d runs from seed %d\n",
		paths[0], a.Env.Commit, a.Env.Runs, a.Env.Seed, paths[1], b.Env.Commit, b.Env.Runs, b.Env.Seed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\tb median\tb/a\ta spread\tb spread\tbound\tverdict")
	bad := 0
	for _, wl := range workloadDefs {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				va, vb := a.Workloads[wl.Name][d.Name], b.Workloads[wl.Name][d.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				v := verdict(d, va, vb)
				if v == "" || (median(va) == 0 && median(vb) == 0) {
					continue
				}
				if v == "REGRESSED" || v == "DIFFERS" {
					bad++
				}
				// Every ratio is given with its base: b over a.
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.3f\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n", wl.Name, d.Name, d.Unit,
					median(va), median(vb), median(vb)/median(va), 100*spread(va), 100*spread(vb), 100*d.Bound, v)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d (workload, metric) pairs regressed or differ", bad)
	}
	return nil
}
