package scalesim

import "scalesim/internal/energy"

// options collects the tunables shared by New, Run and Sweep.
type options struct {
	ert           *energy.ERT
	fidelity      Fidelity
	parallelism   int
	progress      func(LayerProgress)
	sweepProgress func(SweepPointProgress)
	stages        []Stage
	cache         *Cache
	traceEnabled  bool
	traceDir      string
	traceName     string
	traceFiles    string // WriteTraces' output directory; "" for a plain run
}

// sharedDefaultERT is the table every Simulator without WithERT reads. It
// is built once and never written: nothing hands it out for mutation
// (DefaultERT returns a fresh copy), and stages receive it read-only.
var sharedDefaultERT = energy.Default65nm()

func defaultOptions() options {
	return options{ert: sharedDefaultERT, stages: DefaultStages()}
}

// Option configures a Simulator (when passed to New), one run (when passed
// to Run) or a sweep (when passed to Sweep). Run-level options apply on top
// of the Simulator's.
type Option func(*options)

// WithERT overrides the energy reference table (user-customized component
// descriptions, as Accelergy permits). The table is read concurrently by
// the worker pool and must not be mutated while a run is in flight.
// Without this option every Simulator in the process reads one shared,
// read-only default table; to customize the default, modify the fresh
// copy DefaultERT returns and pass it here.
func WithERT(e *ERT) Option {
	return func(o *options) {
		if e != nil {
			o.ert = e
		}
	}
}

// WithParallelism bounds the worker pool that simulates layers (for Run)
// or sweep points (for Sweep). n <= 0 selects GOMAXPROCS, the default.
// Results are deterministic and identical at any parallelism.
func WithParallelism(n int) Option {
	return func(o *options) { o.parallelism = n }
}

// LayerProgress reports one finished layer to a WithProgress callback.
type LayerProgress struct {
	Point string // sweep point name ("" for a plain Run)
	Index int    // layer position within the topology
	Total int    // layers in the topology
	Layer string // layer name
	Done  int    // layers finished so far in this run, including this one
	Err   error  // non-nil when the layer failed
}

// WithProgress registers a callback invoked once per finished layer.
// Callbacks are serialized (never concurrent) but arrive in completion
// order, which under parallelism is not topology order.
func WithProgress(fn func(LayerProgress)) Option {
	return func(o *options) { o.progress = fn }
}

// SweepPointProgress reports one finished sweep point to a
// WithSweepProgress callback.
type SweepPointProgress struct {
	Index int    // point position within the input slice
	Total int    // points in the sweep
	Point string // point name
	Done  int    // points finished so far in this sweep, including this one
	Err   error  // non-nil when the point failed
}

// WithSweepProgress registers a callback invoked once per finished sweep
// point — the point-level done/total signal that per-layer WithProgress
// cannot provide. Callbacks are serialized (never concurrent) but arrive
// in completion order, which under parallelism is not input order. Points
// never dispatched because the context was cancelled produce no callback.
// Run ignores this option.
func WithSweepProgress(fn func(SweepPointProgress)) Option {
	return func(o *options) { o.sweepProgress = fn }
}

// WithStages replaces the per-layer model pipeline. The default is
// DefaultStages (compute, layout, memory, energy); custom stages can be
// appended to it or substituted for a built-in pass. Stages run in order
// for every layer and must be safe for concurrent use across layers. Their
// CacheFingerprints join the cache key (see StageFingerprinter).
func WithStages(stages ...Stage) Option {
	return func(o *options) {
		if len(stages) > 0 {
			o.stages = stages
		}
	}
}

// WithCache attaches a layer-result cache to a Simulator (when passed to
// New), one run or a sweep. A run looks up each distinct layer shape once
// (repeats within the run are copies either way, see Run); a shape whose
// (configuration, stage pipeline, shape) fingerprint an earlier run or a
// sibling sweep point stored is served as a deep copy of the cached result
// instead of being re-simulated. Cached and uncached runs produce
// byte-identical reports.
//
// The same cache may back any number of concurrent runs. Concurrent runs
// that miss on the same key at the same time each simulate it; the cache
// does not make one wait for the other. Passing nil disables caching (the
// default).
func WithCache(c *Cache) Option {
	return func(o *options) { o.cache = c }
}

// WithTrace enables span tracing for a run or sweep. Every run collects a
// hierarchical span tree — run → layer → stage → memory-engine phase —
// whose aggregation Result.Profile() reports; when dir is non-empty the
// tree is additionally written there as Chrome trace-event JSON (one
// <run>.trace.json per run, loadable at ui.perfetto.dev or
// chrome://tracing). For a sweep each point writes its own file, named
// after the point.
//
// Tracing costs a few span allocations per layer; the detached default is
// a nil-receiver no-op on every hot path.
func WithTrace(dir string) Option {
	return func(o *options) {
		o.traceEnabled = true
		o.traceDir = dir
	}
}
