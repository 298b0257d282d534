// Command benchmarks is the repository's end-to-end benchmark: six
// workloads over the simulator's real entry points, the end-to-end metrics
// every later performance or simplicity change is judged by, and a traced
// run that explains them layer by layer. BENCHMARK.json at the repository
// root is its contract; README.md in this directory describes workloads,
// metrics and how to read the output.
//
//	bash benchmarks/run.sh                                  # all workloads, timed and traced
//	bash benchmarks/run.sh --workload sweep_warm --seed 3 --seconds 10 --trace 0
//	bash benchmarks/run.sh -runs 10 -json a.json            # a set of runs, kept
//	bash benchmarks/run.sh -compare a.json b.json           # verdict per (workload, metric)
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

//go:embed golden/seed1.json
var goldenJSON []byte

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    float64
	workdir  string
	runs     int
	jsonOut  string
	golden   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in-process and end with the contract's JSON line (default: all, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; 1 is the canonical set the committed goldens pin")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer ledger instead of the end-to-end metrics")
	flag.Float64Var(&o.scale, "scale", 1, "shrink shapes for smoke tests (goldens apply at 1 only)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for temporary stores and trace files")
	flag.IntVar(&o.runs, "runs", 1, "timed runs per workload when running all workloads, on seeds seed..seed+runs-1")
	flag.StringVar(&o.jsonOut, "json", "", "when running all workloads, also write every result with an environment header to this file")
	flag.StringVar(&o.golden, "update-golden", "", "write seed 1's outputs of every workload to this golden file and exit")
	compare := flag.Bool("compare", false, "compare two -json files given as arguments, applying the contract's bounds")
	contract := flag.Bool("contract", false, "print BENCHMARK.json and exit")
	flag.Parse()

	var err error
	switch {
	case *contract:
		err = writeContract(os.Stdout)
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case o.golden != "":
		err = updateGolden(o)
	case o.workload != "":
		var r result
		if r, err = runOne(o); err == nil {
			// The contract's last stdout line.
			err = json.NewEncoder(os.Stdout).Encode(r)
		}
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repeats is how often a timed run sets up (setup_s is the median) and
// how many iterations it runs at least, so that medians mean something on
// the workloads whose iteration takes seconds. Sub-second smoke runs settle
// for one of each.
func repeats(o options) (setups, minIters int) {
	if o.seconds < 1 {
		return 1, 1
	}
	return 3, 3
}

// setUp builds the workload from fresh seeded inputs and runs its
// warm-up. reps > 1 repeats the whole thing, keeping the last instance.
func setUp(o options, reps int) (workload, []float64, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	var w workload
	var took []float64
	for i := 0; i < reps; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if w, err = newWorkload(o.workload, newInputs(o.seed, o.scale), o.workdir); err != nil {
			return nil, nil, err
		}
		if err := w.warm(); err != nil {
			w.close() //nolint:errcheck // the warm-up error is the one to report
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return w, took, nil
}

// runOne is the contract entry point: one workload, in this process. It
// prints the report and returns the result that ends it.
func runOne(o options) (result, error) {
	if o.trace != 0 {
		return runTraced(o)
	}
	reps, minIters := repeats(o)
	w, setups, err := setUp(o, reps)
	if err != nil {
		return result{}, err
	}
	m := measure(w, time.Duration(o.seconds*float64(time.Second)), minIters)
	problems := append(m.errs, w.verify()...)
	problems = append(problems, checkGolden(o, w.outputs())...)
	if err := w.close(); err != nil {
		problems = append(problems, "close: "+err.Error())
	}
	if len(m.done) == 0 {
		return result{}, fmt.Errorf("no iteration succeeded: %s", strings.Join(problems, "; "))
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "FAILED:", p)
	}
	values := endToEndMetrics(setups, m)
	lat := m.latencies()
	fmt.Printf("%s: seed %d, %d iterations (fastest %.6gs, median %.6gs, slowest %.6gs), %d set-ups, work in %s\n",
		o.workload, o.seed, len(lat), percentile(lat, 0), median(lat), percentile(lat, 100), len(setups), workUnit(o.workload))
	printMetrics(os.Stdout, o.workload, endToEnd, values)
	failed := m.failed + len(problems) - len(m.errs)
	return newResult(endToEnd, values, len(lat)+m.failed, failed), nil
}

// runTraced is the separate traced run: an untraced period for the
// tracing overhead, a traced period for the spans, then the module probes.
func runTraced(o options) (result, error) {
	w, _, err := setUp(o, 1)
	if err != nil {
		return result{}, err
	}
	period := time.Duration(o.seconds * float64(time.Second))
	plain := measure(w, period*3/10, 1)
	rec := newRecorder(o.workload)
	w.trace(rec)
	traced := measure(w, period/2, 1)
	problems := append(plain.errs, traced.errs...)
	if len(plain.done) == 0 || len(traced.done) == 0 {
		return result{}, fmt.Errorf("no iteration succeeded: %s", strings.Join(problems, "; "))
	}

	values := metrics{}
	w.ledger(values, rec.spans, len(traced.done))
	values["telemetry.trace_overhead_ratio"] = median(traced.latencies()) / median(plain.latencies())
	if err := w.close(); err != nil {
		problems = append(problems, "close: "+err.Error())
	}
	p := &probeEnv{rec: rec, m: values, workdir: o.workdir}
	p.fpRuns, p.fpLayers = fingerprintsPerIteration(o)
	for _, probe := range probesFor[o.workload] {
		if err := probe(p); err != nil {
			problems = append(problems, "probe: "+err.Error())
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "FAILED:", p)
	}
	path, err := rec.writeChromeTrace(filepath.Join(o.workdir, "traces"))
	if err != nil {
		return result{}, err
	}
	fmt.Printf("%s: seed %d, %d traced iterations, %d spans in %s\n", o.workload, o.seed, len(traced.done), len(rec.spans), path)
	printMetrics(os.Stdout, o.workload, perLayer, values)
	attempted := len(plain.done) + plain.failed + len(traced.done) + traced.failed
	return newResult(perLayer, values, attempted, len(problems)), nil
}

// fingerprintsPerIteration counts the cache fingerprints one iteration of
// a cached workload computes: one config+ERT hash per run and one layer
// hash per layer. Uncached workloads compute none.
func fingerprintsPerIteration(o options) (runs, layers int) {
	in := newInputs(o.seed, o.scale)
	switch o.workload {
	case "sweep_warm", "sweep_store":
		pts := in.sweepPoints()
		runs = len(pts)
		for _, p := range pts {
			layers += len(p.Topology.Layers)
		}
		if o.workload == "sweep_store" {
			runs, layers = 2*runs, 2*layers
		}
	case "serve_closed_loop":
		runs, layers = 1, 8
	}
	return runs, layers
}

// workUnit names what work_per_s counts on the workload.
func workUnit(workload string) string {
	for _, d := range workloadDefs {
		if d.Name == workload {
			return d.unit
		}
	}
	return "iterations"
}

// newResult assembles the contract's result: every declared metric.
func newResult(defs []metricDef, values metrics, attempted, failed int) result {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return r
}

// checkGolden compares seed 1's outputs with the committed golden entry.
func checkGolden(o options, got runOutputs) []string {
	if o.seed != 1 || o.scale != 1 {
		return nil
	}
	var golden map[string]runOutputs
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return []string{"golden/seed1.json: " + err.Error()}
	}
	if want, ok := golden[o.workload]; !ok {
		return []string{"golden/seed1.json has no entry for " + o.workload}
	} else if got != want {
		return []string{fmt.Sprintf("outputs %+v differ from golden %+v", got, want)}
	}
	return nil
}

// updateGolden regenerates the golden file from seed 1's warm-up outputs.
func updateGolden(o options) error {
	o.seed, o.scale = 1, 1
	golden := map[string]runOutputs{}
	for _, def := range workloadDefs {
		o.workload = def.Name
		w, _, err := setUp(o, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", def.Name, err)
		}
		golden[def.Name] = w.outputs()
		if err := w.close(); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.golden, append(data, '\n'), 0o644)
}

// environment heads a -json file: enough to tell whether two files are
// comparable.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
}

// suiteFile is what -json writes and -compare reads: for every workload,
// every metric's value in each run.
type suiteFile struct {
	Env       environment                     `json:"env"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
}

var errIncorrect = errors.New("some outputs were incorrect")

// runAll runs every workload in its own child process - so caches cannot
// leak between workloads and peak memory is per workload - timed on each
// seed, then traced once.
func runAll(o options) error {
	file := suiteFile{
		Env: environment{Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: o.seed, Runs: o.runs, Seconds: o.seconds, Scale: o.scale},
		Workloads: map[string]map[string][]float64{},
	}
	incorrect := false
	for _, def := range workloadDefs {
		values := map[string][]float64{}
		file.Workloads[def.Name] = values
		for run := 0; run <= o.runs; run++ {
			// The last pass is the traced run, on the first seed.
			seed, trace := o.seed+uint64(run), 0
			if run == o.runs {
				seed, trace = o.seed, 1
			}
			r, err := runChild(o, def.Name, seed, trace)
			if err != nil {
				return fmt.Errorf("%s: %w", def.Name, err)
			}
			incorrect = incorrect || !r.Correct
			for name, v := range r.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
	}
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// commit names the checked-out revision, when the tree is a git checkout.
func commit() string {
	for dir, _ := os.Getwd(); ; dir = filepath.Dir(dir) {
		if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			ref := strings.TrimSpace(string(head))
			if name, ok := strings.CutPrefix(ref, "ref: "); ok {
				if sha, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
					return strings.TrimSpace(string(sha))
				}
			}
			return ref
		}
		if dir == filepath.Dir(dir) {
			return "unknown"
		}
	}
}
