package scalesim

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/sram"
	"scalesim/internal/systolic"
	"scalesim/internal/telemetry"
)

// TestObserveRunTraceCoverage checks the tentpole trace contract: a traced
// run yields one run-root span, one layer span per topology layer, and a
// stage span for every pipeline stage under every layer — and the exported
// Chrome trace file is valid JSON carrying one event per span.
func TestObserveRunTraceCoverage(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res, err := New(cfg).Run(context.Background(), topo, WithTrace(dir))
	if err != nil {
		t.Fatal(err)
	}

	spans := res.Spans()
	var runs, layers int
	stagesByLayer := map[int64]map[string]bool{}
	for _, s := range spans {
		switch s.Cat {
		case "run":
			runs++
		case "layer":
			layers++
			if stagesByLayer[s.ID] == nil {
				stagesByLayer[s.ID] = map[string]bool{}
			}
		}
	}
	for _, s := range spans {
		if s.Cat == "stage" {
			if stagesByLayer[s.Parent] == nil {
				t.Fatalf("stage span %q has non-layer parent %d", s.Name, s.Parent)
			}
			stagesByLayer[s.Parent][s.Name] = true
		}
	}
	if runs != 1 {
		t.Fatalf("run spans = %d, want 1", runs)
	}
	if layers != len(topo.Layers) {
		t.Fatalf("layer spans = %d, want %d", layers, len(topo.Layers))
	}
	for id, stages := range stagesByLayer {
		for _, want := range []string{"compute", "layout", "memory", "energy"} {
			if !stages[want] {
				t.Errorf("layer span %d missing %q stage span (has %v)", id, want, stages)
			}
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, cfg.RunName+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) != len(spans) {
		t.Fatalf("trace events = %d, want %d (one per span)", len(trace.TraceEvents), len(spans))
	}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want complete event X", ev.Name, ev.Ph)
		}
	}
}

// TestObserveRunUntracedHasNoProfile pins the detached fast path: without
// WithTrace a run records no spans and Profile returns nil.
func TestObserveRunUntracedHasNoProfile(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Profile(); p != nil {
		t.Fatalf("untraced run has a profile: %+v", p)
	}
	if sp := res.Spans(); sp != nil {
		t.Fatalf("untraced run has %d spans", len(sp))
	}
}

// TestObserveProfileAttribution checks that at parallelism 1 the per-layer
// wall-time attribution accounts for (nearly) the whole run: layer spans
// are back-to-back under the run root, so their sum must land within 5% of
// the measured wall time on a run long enough to dominate fixed overheads.
func TestObserveProfileAttribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Memory.Enabled = true
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cfg).Run(context.Background(), topo, WithTrace(""), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile()
	if p == nil {
		t.Fatal("traced run has no profile")
	}
	if p.Wall <= 0 {
		t.Fatalf("profile wall time = %v", p.Wall)
	}
	if len(p.Layers) != len(topo.Layers) {
		t.Fatalf("profile layers = %d, want %d", len(p.Layers), len(topo.Layers))
	}
	var layerSum, stageSum int64
	for _, l := range p.Layers {
		layerSum += int64(l.Total)
	}
	for _, s := range p.Stages {
		stageSum += int64(s.Total)
		if s.Calls != len(topo.Layers) {
			t.Errorf("stage %q ran %d times, want %d", s.Name, s.Calls, len(topo.Layers))
		}
	}
	wall := int64(p.Wall)
	if gap := wall - layerSum; gap < 0 || gap > wall/20 {
		t.Errorf("layer attribution %v vs wall %v: gap beyond 5%%", layerSum, wall)
	}
	if stageSum > layerSum {
		t.Errorf("stage total %d exceeds enclosing layer total %d", stageSum, layerSum)
	}
}

// TestObserveLayerCacheAttr checks the cache-fidelity attribute: re-running
// an identical topology against a shared cache marks every layer span as a
// cache hit, and Profile surfaces that per layer.
func TestObserveLayerCacheAttr(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0, 0)
	sim := New(cfg)
	if _, err := sim.Run(context.Background(), topo, WithCache(cache)); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), topo, WithCache(cache), WithTrace(""))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile()
	if p == nil {
		t.Fatal("traced run has no profile")
	}
	for _, l := range p.Layers {
		if !l.Cached {
			t.Errorf("layer %q not marked cached on the warm re-run", l.Name)
		}
	}
}

// TestObserveRepeatedShapeSpans checks how a run that copies repeated
// shapes shows in its trace: every layer keeps its span, a repeat's span
// has no stage children and a "copy_of" attribute naming the index it
// copies, and Profile marks exactly the repeats cached.
func TestObserveRepeatedShapeSpans(t *testing.T) {
	topo := repeatedShapeTopology(3) // block0..block2 share a shape, then a tail
	res, err := New(DefaultConfig()).Run(context.Background(), topo, WithTrace(""))
	if err != nil {
		t.Fatal(err)
	}
	spans := res.Spans()
	children := map[int64]int{}
	for _, s := range spans {
		if s.Cat == "stage" {
			children[s.Parent]++
		}
	}
	copyOf := map[string]any{}
	for _, s := range spans {
		if s.Cat != "layer" {
			continue
		}
		var src any
		for _, a := range s.Attrs {
			if a.Key == "copy_of" {
				src = a.Value
			}
		}
		copyOf[s.Name] = src
		if repeat := src != nil; repeat != (children[s.ID] == 0) {
			t.Errorf("layer %q: copy_of %v with %d stage spans", s.Name, src, children[s.ID])
		}
	}
	want := map[string]any{"block0": nil, "block1": 0, "block2": 0, "tail": nil}
	if !reflect.DeepEqual(copyOf, want) {
		t.Errorf("copy_of by layer span = %v, want %v", copyOf, want)
	}
	for _, l := range res.Profile().Layers {
		if l.Cached != (want[l.Name] != nil) {
			t.Errorf("layer %q: Profile Cached = %v", l.Name, l.Cached)
		}
	}
}

// TestObserveAttachedMemoryReplayOverhead is the telemetry budget of the
// stall-heavy memory replay, stated as counts instead of wall time: a span
// attached to it (what WithTrace threads into the engines) must leave every
// simulated number unchanged and add O(phases) spans and allocations, not
// O(cycles) or O(requests). Quadrupling the streamed dimension quadruples
// the simulated work, so a per-fold, per-request or per-event span or
// attribute breaks the equal span counts or the allocation bound.
func TestObserveAttachedMemoryReplayOverhead(t *testing.T) {
	// benchMemoryRun's machine: WS 32×32 against one DDR4-2400 channel with
	// a 64-entry queue.
	replay := func(g systolic.Gemm, span *telemetry.Span) *sram.Result {
		s, err := sram.BuildSchedule(config.WeightStationary, 32, 32, g, sram.ScheduleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := dram.New(dram.DDR4_2400(), dram.Options{Channels: 1, QueueDepth: 64, Trace: span})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sram.Simulate(s, sys, sram.Options{MaxRequestsPerCycle: 1, Trace: span})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	attached := func(g systolic.Gemm) (*sram.Result, int) {
		tr := telemetry.NewTracer()
		root := tr.Start("replay", "run")
		res := replay(g, root)
		root.End()
		return res, len(tr.Records())
	}

	const maxExtraAllocs = 32
	var spans []int
	for _, m := range []int{256, 1024} {
		g := systolic.Gemm{M: m, N: 128, K: 256}
		want := replay(g, nil)
		got, n := attached(g)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("M=%d: attached result differs from detached:\n got %+v\nwant %+v", m, got, want)
		}
		spans = append(spans, n)
		detachedAllocs := testing.AllocsPerRun(2, func() { replay(g, nil) })
		attachedAllocs := testing.AllocsPerRun(2, func() { attached(g) })
		extra := attachedAllocs - detachedAllocs
		t.Logf("M=%d: %d simulated cycles, %d spans, %.0f extra allocations", m, want.TotalCycles, n, extra)
		if extra > maxExtraAllocs {
			t.Errorf("M=%d: attaching a span costs %.0f allocations (%.0f vs %.0f), want ≤ %d",
				m, extra, attachedAllocs, detachedAllocs, maxExtraAllocs)
		}
	}
	if spans[0] != spans[1] {
		t.Errorf("span count grows with the simulated work: %d spans at M=256, %d at M=1024", spans[0], spans[1])
	}
}

// TestProgressDeterministicAcrossParallelism pins the WithProgress
// contract at every pool width: exactly one callback per layer, each index
// once, Done strictly increasing to the layer count.
func TestProgressDeterministicAcrossParallelism(t *testing.T) {
	cfg := DefaultConfig()
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		var mu sync.Mutex
		calls := 0
		seen := map[int]bool{}
		lastDone := 0
		_, err := New(cfg).Run(context.Background(), topo, WithParallelism(par),
			WithProgress(func(p LayerProgress) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				if seen[p.Index] {
					t.Errorf("parallelism %d: layer %d reported twice", par, p.Index)
				}
				seen[p.Index] = true
				if p.Done != lastDone+1 {
					t.Errorf("parallelism %d: Done %d after %d, want +1 steps", par, p.Done, lastDone)
				}
				lastDone = p.Done
				if p.Total != len(topo.Layers) {
					t.Errorf("parallelism %d: Total = %d, want %d", par, p.Total, len(topo.Layers))
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		if calls != len(topo.Layers) {
			t.Errorf("parallelism %d: %d progress callbacks, want %d", par, calls, len(topo.Layers))
		}
	}
}

// TestProgressSweepDeterministicAcrossParallelism pins WithSweepProgress
// the same way: one callback per sweep point at any pool width, Done
// strictly increasing.
func TestProgressSweepDeterministicAcrossParallelism(t *testing.T) {
	topo, err := BuiltinTopology("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	var points []SweepPoint
	for _, df := range []Dataflow{OutputStationary, WeightStationary, InputStationary} {
		cfg := DefaultConfig()
		cfg.Dataflow = df
		points = append(points, SweepPoint{Name: "df-" + df.String(), Config: cfg, Topology: topo})
	}
	cfg16 := DefaultConfig()
	cfg16.ArrayRows, cfg16.ArrayCols = 16, 16
	points = append(points, SweepPoint{Name: "arr16", Config: cfg16, Topology: topo})
	for _, par := range []int{1, 2, 8} {
		var mu sync.Mutex
		calls := 0
		seen := map[string]bool{}
		lastDone := 0
		_, err := Sweep(context.Background(), points,
			WithParallelism(par),
			WithSweepProgress(func(p SweepPointProgress) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				if seen[p.Point] {
					t.Errorf("parallelism %d: point %q reported twice", par, p.Point)
				}
				seen[p.Point] = true
				if p.Done != lastDone+1 {
					t.Errorf("parallelism %d: Done %d after %d, want +1 steps", par, p.Done, lastDone)
				}
				lastDone = p.Done
				if p.Total != len(points) {
					t.Errorf("parallelism %d: Total = %d, want %d", par, p.Total, len(points))
				}
				if p.Err != nil {
					t.Errorf("parallelism %d: point %q failed: %v", par, p.Point, p.Err)
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		if calls != len(points) {
			t.Errorf("parallelism %d: %d sweep callbacks, want %d", par, calls, len(points))
		}
	}
}
