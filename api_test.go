package scalesim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"scalesim/internal/energy"
)

// reportBytes renders every report of a result for byte-level comparison.
func reportBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range res.Reports().All() {
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestParallelMatchesSequential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Energy.Enabled = true
	topo, err := BuiltinTopology("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	sim := New(cfg)
	seq, err := sim.Run(context.Background(), topo, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		got, err := sim.Run(context.Background(), topo, WithParallelism(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(seq.Layers, got.Layers) {
			t.Fatalf("parallelism %d: layer results differ from sequential", par)
		}
		if !bytes.Equal(reportBytes(t, seq), reportBytes(t, got)) {
			t.Fatalf("parallelism %d: report CSVs not byte-identical", par)
		}
	}
}

func TestParallelMatchesSequentialWithMemory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Memory.Enabled = true
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	topo = topo.Sub(2, 5) // three mid-size layers keep the test fast
	sim := New(cfg)
	seq, err := sim.Run(context.Background(), topo, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := sim.Run(context.Background(), topo, WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Layers, par.Layers) {
		t.Fatal("memory-model results differ between sequential and parallel runs")
	}
}

// opaqueStage hides the wrapped stage's CacheFingerprint: a pipeline of
// them is not known to be pure, so Run simulates every layer on its own.
type opaqueStage struct{ Stage }

// TestRunGroupsRepeatedShapes is the differential test of in-run shape
// grouping over the whole zoo: an uncached run that simulates each distinct
// shape once and copies it to the repeats equals one that simulates every
// layer, at one worker and at four, and still reports progress once per
// layer.
func TestRunGroupsRepeatedShapes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Memory.Enabled = true
	cfg.Layout.Enabled = true
	cfg.Energy.Enabled = true
	var perLayer []Stage
	for _, st := range DefaultStages() {
		perLayer = append(perLayer, opaqueStage{st})
	}
	sim := New(cfg, WithFidelity(Analytical))
	for _, name := range BuiltinTopologyNames() {
		topo, err := BuiltinTopology(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			var mu sync.Mutex
			calls := map[int]int{}
			lastDone := 0
			grouped, err := sim.Run(context.Background(), topo, WithParallelism(par),
				WithProgress(func(p LayerProgress) {
					mu.Lock()
					defer mu.Unlock()
					calls[p.Index]++
					lastDone = p.Done
				}))
			if err != nil {
				t.Fatalf("%s, parallelism %d: %v", name, par, err)
			}
			want, err := sim.Run(context.Background(), topo, WithParallelism(par), WithStages(perLayer...))
			if err != nil {
				t.Fatalf("%s, parallelism %d, per layer: %v", name, par, err)
			}
			if !reflect.DeepEqual(grouped, want) {
				t.Errorf("%s, parallelism %d: grouped run differs from the per-layer run", name, par)
			}
			for i := range topo.Layers {
				if calls[i] != 1 {
					t.Errorf("%s, parallelism %d: layer %d reported %d times, want once", name, par, i, calls[i])
				}
			}
			if lastDone != len(topo.Layers) {
				t.Errorf("%s, parallelism %d: final Done %d, want %d", name, par, lastDone, len(topo.Layers))
			}
		}
	}
}

func TestRunProgress(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[int]bool{}
	maxDone := 0
	_, err = New(cfg).Run(context.Background(), topo, WithParallelism(4),
		WithProgress(func(p LayerProgress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Err != nil {
				t.Errorf("layer %d: unexpected error %v", p.Index, p.Err)
			}
			if seen[p.Index] {
				t.Errorf("layer %d reported twice", p.Index)
			}
			seen[p.Index] = true
			if p.Done <= maxDone {
				t.Errorf("Done not increasing: %d after %d", p.Done, maxDone)
			}
			maxDone = p.Done
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(topo.Layers) {
		t.Fatalf("progress for %d layers, want %d", len(seen), len(topo.Layers))
	}
	if maxDone != len(topo.Layers) {
		t.Fatalf("final Done %d, want %d", maxDone, len(topo.Layers))
	}
}

func TestRunCancellation(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := BuiltinTopology("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		completed := 0
		_, err := New(cfg).Run(ctx, topo, WithParallelism(par),
			WithProgress(func(p LayerProgress) {
				completed++
				cancel() // abort after the first finished layer
			}))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: got error %v, want context.Canceled", par, err)
		}
		if completed >= len(topo.Layers) {
			t.Errorf("parallelism %d: all %d layers ran despite cancellation", par, completed)
		}
		cancel()
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(DefaultConfig()).Run(ctx, topo); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// failStage fails on a specific layer name.
type failStage struct{ layer string }

func (f failStage) Name() string { return "fail" }
func (f failStage) Apply(_ context.Context, sc *StageContext, _ *LayerResult) error {
	if sc.Layer.Name == f.layer {
		return fmt.Errorf("injected failure")
	}
	return nil
}

func TestRunFirstErrorCancels(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := BuiltinTopology("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	bad := topo.Layers[3].Name
	stages := append(DefaultStages(), failStage{layer: bad})
	for _, par := range []int{1, 4} {
		var seen []LayerProgress
		_, err = New(cfg).Run(context.Background(), topo, WithParallelism(par), WithStages(stages...),
			WithProgress(func(p LayerProgress) { seen = append(seen, p) }))
		if err == nil {
			t.Fatalf("parallelism %d: run succeeded despite failing stage", par)
		}
		want := fmt.Sprintf("layer %q", bad)
		if got := err.Error(); !bytes.Contains([]byte(got), []byte(want)) {
			t.Fatalf("parallelism %d: error %q does not name failing layer %q", par, got, bad)
		}
		if par != 1 {
			continue
		}
		// One worker runs layers in order and stops at the failure: four
		// callbacks, the last one carrying the error with Done = 4.
		if len(seen) != 4 {
			t.Fatalf("one worker: %d progress callbacks, want 4", len(seen))
		}
		for i, p := range seen {
			if p.Index != i || p.Done != i+1 || (p.Err != nil) != (i == 3) {
				t.Errorf("one worker: callback %d = {Index %d, Done %d, Err %v}", i, p.Index, p.Done, p.Err)
			}
		}
	}
}

// wrapStage fails on one layer with an error wrapping a context sentinel,
// mimicking a custom backend whose own timeout fired.
type wrapStage struct{ layer string }

func (w wrapStage) Name() string { return "wrap" }
func (w wrapStage) Apply(_ context.Context, sc *StageContext, _ *LayerResult) error {
	if sc.Layer.Name == w.layer {
		return fmt.Errorf("backend timeout: %w", context.DeadlineExceeded)
	}
	return nil
}

// TestRunStageTimeoutErrorNotSwallowed guards against the parallel path
// mistaking a stage's own wrapped context error for internal cancellation
// and returning a nil error with zero-valued layers.
func TestRunStageTimeoutErrorNotSwallowed(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := BuiltinTopology("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	stages := append(DefaultStages(), wrapStage{layer: topo.Layers[2].Name})
	for _, par := range []int{1, 4} {
		res, err := New(cfg).Run(context.Background(), topo, WithParallelism(par), WithStages(stages...))
		if err == nil {
			t.Fatalf("parallelism %d: wrapped timeout error swallowed, got result %v", par, res != nil)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("parallelism %d: error %v does not wrap the cause", par, err)
		}
	}
}

// countStage counts Apply calls; used to verify custom stages run.
type countStage struct {
	mu sync.Mutex
	n  int
}

func (c *countStage) Name() string { return "count" }
func (c *countStage) Apply(_ context.Context, _ *StageContext, _ *LayerResult) error {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return nil
}

func TestWithStagesCustomPipeline(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	cs := &countStage{}
	res, err := New(cfg, WithStages(append(DefaultStages(), cs)...)).
		Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if cs.n != len(topo.Layers) {
		t.Fatalf("custom stage ran %d times, want %d", cs.n, len(topo.Layers))
	}
	// Compute-only pipeline: layers still get cycles, but no DRAM words
	// (the memory stage records minimum traffic).
	res2, err := New(cfg, WithStages(ComputeStage())).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if res2.TotalCycles() != res.TotalCycles() {
		t.Errorf("compute-only cycles %d != full pipeline %d (memory model off)",
			res2.TotalCycles(), res.TotalCycles())
	}
	for i := range res2.Layers {
		if res2.Layers[i].DRAMReadWords != 0 {
			t.Errorf("layer %d: DRAM words set without the memory stage", i)
		}
	}
}

// TestSweep checks that Sweep forwards its options to every point: each
// point must equal a standalone New(cfg).Run given the same settings —
// layers, cache statistics, trace span names and progress callbacks — and
// each case's option must visibly change the run, so a dropped option
// fails rather than matching a default run.
func TestSweep(t *testing.T) {
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	topo = topo.Sub(0, 4)
	customERT := DefaultERT()
	customERT.Set(energy.CompMAC, energy.ActMACRandom, 9.5)
	// recorder collects one side's WithProgress callbacks in arrival order.
	type recorder struct{ events []LayerProgress }
	cases := []struct {
		name    string
		cfg     func(*Config)            // per-point tweak on top of DefaultConfig
		opts    func(*recorder) []Option // fresh for the sweep and for the solo runs
		invalid bool                     // the middle point's Config fails validation
		// took reports whether the option changed the last point's run
		// against a run of its Config with no options.
		took func(solo, base *Result) bool
	}{
		{name: "default"},
		{
			name: "ert",
			cfg:  func(c *Config) { c.Energy.Enabled = true },
			opts: func(*recorder) []Option { return []Option{WithERT(customERT)} },
			took: func(solo, base *Result) bool {
				return solo.Layers[0].Energy.TotalPJ != base.Layers[0].Energy.TotalPJ
			},
		},
		{
			name: "stages",
			cfg:  func(c *Config) { c.Energy.Enabled = true },
			opts: func(*recorder) []Option { return []Option{WithStages(ComputeStage())} },
			took: func(solo, base *Result) bool {
				return solo.Layers[0].Energy == nil && base.Layers[0].Energy != nil
			},
		},
		{
			name: "cache",
			opts: func(*recorder) []Option { return []Option{WithCache(NewCache(0, 0))} },
			took: func(solo, _ *Result) bool { return solo.CacheStats.Misses > 0 },
		},
		{
			name: "fidelity",
			cfg:  func(c *Config) { c.Memory.Enabled = true },
			opts: func(*recorder) []Option { return []Option{WithFidelity(Analytical)} },
			took: func(solo, base *Result) bool { return !reflect.DeepEqual(solo.Layers, base.Layers) },
		},
		{
			name: "trace",
			opts: func(*recorder) []Option { return []Option{WithTrace("")} },
			took: func(solo, _ *Result) bool { return solo.Profile() != nil },
		},
		{
			name: "progress",
			opts: func(r *recorder) []Option {
				return []Option{WithProgress(func(lp LayerProgress) { r.events = append(r.events, lp) })}
			},
		},
		{
			name: "invalid config", invalid: true,
			opts: func(*recorder) []Option { return []Option{WithCache(NewCache(0, 0))} },
		},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var points []SweepPoint
			for i, arr := range []int{16, 32, 64} {
				cfg := DefaultConfig()
				cfg.ArrayRows, cfg.ArrayCols = arr, arr
				if tc.cfg != nil {
					tc.cfg(&cfg)
				}
				if tc.invalid && i == 1 {
					cfg.ArrayRows = -1 // fails validation
				}
				points = append(points, SweepPoint{Name: fmt.Sprintf("%dx%d", arr, arr), Config: cfg, Topology: topo})
			}
			opts := func(r *recorder) []Option {
				if tc.opts == nil {
					return nil
				}
				return tc.opts(r)
			}
			var swept, solos recorder
			results, err := Sweep(ctx, points, opts(&swept)...)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(points) {
				t.Fatalf("got %d results, want %d", len(results), len(points))
			}
			// One cache and one recorder for every solo run; a point runs
			// its layers one at a time, so the solo runs do too.
			soloOpts := append(opts(&solos), WithParallelism(1))
			for i, sr := range results {
				p := points[i]
				if sr.Point.Name != p.Name {
					t.Errorf("result %d out of order: %s", i, sr.Point.Name)
				}
				from := len(solos.events)
				solo, soloErr := New(p.Config).Run(ctx, topo, soloOpts...)
				if soloErr != nil {
					if !tc.invalid || i != 1 {
						t.Fatalf("point %s: %v", p.Name, soloErr)
					}
					if sr.Result != nil || sr.Err == nil || sr.Err.Error() != soloErr.Error() {
						t.Errorf("point %s: sweep gave (%v, %v), standalone run the error %v", p.Name, sr.Result != nil, sr.Err, soloErr)
					}
					continue
				}
				if sr.Err != nil {
					t.Fatalf("point %s: %v", p.Name, sr.Err)
				}
				got := sr.Result
				if !reflect.DeepEqual(got.Config, solo.Config) || !reflect.DeepEqual(got.Layers, solo.Layers) {
					t.Errorf("point %s: sweep result differs from standalone run", p.Name)
				}
				if got.CacheStats != solo.CacheStats {
					t.Errorf("point %s: cache stats %+v, standalone %+v", p.Name, got.CacheStats, solo.CacheStats)
				}
				if g, w := profileNames(got.Profile()), profileNames(solo.Profile()); !reflect.DeepEqual(g, w) {
					t.Errorf("point %s: profile spans %v, standalone %v", p.Name, g, w)
				}
				var pointEvents []LayerProgress
				for _, lp := range swept.events {
					if lp.Point == p.Name {
						lp.Point = ""
						pointEvents = append(pointEvents, lp)
					}
				}
				if want := solos.events[from:]; !reflect.DeepEqual(pointEvents, want) && (len(pointEvents) > 0 || len(want) > 0) {
					t.Errorf("point %s: progress %+v, standalone %+v", p.Name, pointEvents, want)
				}
				if tc.took != nil && i == len(points)-1 {
					base, err := New(p.Config).Run(ctx, topo)
					if err != nil {
						t.Fatal(err)
					}
					if !tc.took(solo, base) {
						t.Errorf("point %s: the option did not change the run", p.Name)
					}
				}
			}
			if tc.name == "progress" && len(swept.events) != len(points)*len(topo.Layers) {
				t.Errorf("%d progress callbacks, want one per layer per point (%d)", len(swept.events), len(points)*len(topo.Layers))
			}
			if !tc.invalid && !(results[2].Result.TotalCycles() < results[0].Result.TotalCycles()) {
				// Bigger arrays finish sooner on these conv layers.
				t.Errorf("64x64 cycles %d not below 16x16 cycles %d",
					results[2].Result.TotalCycles(), results[0].Result.TotalCycles())
			}
		})
	}
}

// profileNames lists a profile's stage names, sorted (Stages is ordered by
// time), and its layer names, the parts of a trace that do not depend on
// timing; nil without a trace.
func profileNames(p *Profile) []string {
	if p == nil {
		return nil
	}
	var names []string
	for _, s := range p.Stages {
		names = append(names, "stage:"+s.Name)
	}
	slices.Sort(names)
	for _, l := range p.Layers {
		names = append(names, "layer:"+l.Name)
	}
	return names
}

func TestSweepPointErrorDoesNotCancelSiblings(t *testing.T) {
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	topo = topo.Sub(0, 2)
	good := DefaultConfig()
	bad := DefaultConfig()
	bad.ArrayRows = -1 // fails validation
	results, err := Sweep(context.Background(), []SweepPoint{
		{Name: "bad", Config: bad, Topology: topo},
		{Name: "good", Config: good, Topology: topo},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Error("invalid config did not error")
	}
	if results[1].Err != nil || results[1].Result == nil {
		t.Errorf("valid sibling failed: %v", results[1].Err)
	}
}

// TestSweepCancelledFillsErrs: points never dispatched because the context
// was cancelled must still report an error, not a nil/nil SweepResult.
func TestSweepCancelledFillsErrs(t *testing.T) {
	topo, err := BuiltinTopology("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	var points []SweepPoint
	for i := 0; i < 16; i++ {
		points = append(points, SweepPoint{
			Name: fmt.Sprintf("p%d", i), Config: DefaultConfig(), Topology: topo,
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	started := false
	results, err := Sweep(ctx, points, WithParallelism(1),
		WithProgress(func(LayerProgress) {
			if !started {
				started = true
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	for i, sr := range results {
		if (sr.Result == nil) == (sr.Err == nil) {
			t.Errorf("point %d: Result=%v Err=%v violates one-of contract",
				i, sr.Result != nil, sr.Err)
		}
		if sr.Point.Name != points[i].Name {
			t.Errorf("point %d: missing Point metadata (%q)", i, sr.Point.Name)
		}
	}
	cancel()
}

func TestReportSetWriteAll(t *testing.T) {
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
	if rs.Memory != nil {
		t.Error("memory report present although the memory model was disabled")
	}
	if rs.Sparse != nil {
		t.Error("sparse report present although no layer ran sparse")
	}
	if rs.Energy == nil {
		t.Fatal("energy report missing although energy modeling was enabled")
	}
	dir := t.TempDir()
	if err := rs.WriteAll(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ComputeReportFile, BandwidthReportFile, EnergyReportFile} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(b) == 0 {
			t.Errorf("%s: empty report", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, MemoryReportFile)); !os.IsNotExist(err) {
		t.Error("MEMORY_REPORT.csv written although the memory model was disabled")
	}
}

// TestWriteReportsSkipsDisabledMemoryRows guards the junk-row fix: with the
// memory model disabled no layer contributes a zero-valued memory row, so
// the report set carries no memory report at all.
func TestWriteReportsSkipsDisabledMemoryRows(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, mrows, _, _ := res.reportRows(); len(mrows) != 0 {
		t.Errorf("%d memory rows although the memory model was disabled", len(mrows))
	}
	if rs := res.Reports(); rs.Memory != nil {
		t.Error("memory report present although the memory model was disabled")
	}
}

// TestDefaultERTIsolatedFromCallers pins the shared default table as
// unreachable: every table a caller can get hold of — DefaultERT() and the
// PnR variant derived from the same constructor — is a private copy, so
// scribbling over it changes nothing for runs that use the default.
func TestDefaultERTIsolatedFromCallers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 16, 16
	cfg.Energy.Enabled = true
	topo := repeatedShapeTopology(1)
	defaultRun := func() *Result {
		t.Helper()
		res, err := New(cfg).Run(context.Background(), topo)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	before := reportBytes(t, defaultRun())
	for _, ert := range []*ERT{DefaultERT(), energy.PnR65nm()} {
		for c, acts := range ert.Entries {
			for a := range acts {
				ert.Set(c, a, 1e6)
			}
		}
		ert.PELeakagePJPerCycle, ert.SRAMLeakagePJPerKBCycle = 1e6, 1e6
	}
	if after := reportBytes(t, defaultRun()); !bytes.Equal(before, after) {
		t.Error("mutating the tables DefaultERT/PnR65nm returned changed a default run's reports")
	}
	// The copy is live, not inert: handed back through WithERT it takes effect.
	hot := DefaultERT()
	hot.PELeakagePJPerCycle *= 2
	res, err := New(cfg, WithERT(hot)).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if base := defaultRun(); res.TotalEnergyMJ() <= base.TotalEnergyMJ() {
		t.Errorf("doubled leakage via WithERT: %g mJ, default %g mJ", res.TotalEnergyMJ(), base.TotalEnergyMJ())
	}
}
