package scalesim

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"scalesim/internal/simcache"
	"scalesim/internal/telemetry"
)

// Run simulates every layer of the topology and returns per-layer results
// in topology order.
//
// Layers are independent and run on a bounded worker pool; the default
// width is GOMAXPROCS, WithParallelism overrides it. Results are
// deterministic: any parallelism produces the same Result. The context
// cancels the run between layers (and between stages of a layer); the
// first layer error cancels the remaining work and is returned.
//
// A run simulates each distinct layer shape once, cache or no cache: a
// layer whose Layer value differs from an earlier one's only in Name takes
// a deep copy of its result (see StageFingerprinter). WithProgress still
// reports every layer, and a repeat's trace span has no stage children.
//
// With a cache attached (WithCache), the first layer of each shape is
// looked up under its fingerprint — configuration, stage pipeline and
// layer shape, but not layer name — and served as a deep copy when an
// earlier run stored it; Result.CacheStats reports the outcome per layer.
// Cached and uncached runs produce byte-identical reports.
func (s *Simulator) Run(ctx context.Context, topo *Topology, opts ...Option) (*Result, error) {
	if err := validateRun(&s.cfg, topo); err != nil {
		return nil, err
	}
	o := s.opts
	for _, opt := range opts {
		opt(&o)
	}
	return run(ctx, &s.cfg, &o, topo)
}

// validateRun is Run's check of its inputs, ahead of any option.
func validateRun(cfg *Config, topo *Topology) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return topo.Validate()
}

// run simulates topo under cfg with resolved options; cfg and topo are
// valid. The Result keeps its own copy of cfg.
func run(ctx context.Context, cfg *Config, o *options, topo *Topology) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lc := newLayerCache(o.cache, cfg, o)
	res := &Result{Config: *cfg, Layers: make([]LayerResult, len(topo.Layers))}

	// A nil tracer is the zero-overhead default: every span below no-ops.
	var tracer *telemetry.Tracer
	if o.traceEnabled {
		tracer = telemetry.NewTracer()
	}
	start := time.Now()
	root := tracer.Start("run", "run")
	root.SetAttr("run", cfg.RunName)
	root.SetAttr("dataflow", cfg.Dataflow.String())
	root.SetAttr("array", fmt.Sprintf("%dx%d", cfg.ArrayRows, cfg.ArrayCols))
	root.SetAttr("layers", len(topo.Layers))

	err := runLayers(ctx, cfg, o, topo, res.Layers, lc, root)
	root.End()
	if err != nil {
		return nil, err
	}
	if lc != nil {
		res.CacheStats = lc.stats()
	}
	if tracer != nil {
		res.wall = time.Since(start)
		res.spans = tracer.Records()
		if o.traceDir != "" {
			// The file is named after the sweep point, else the run.
			base := sanitize(cmp.Or(o.traceName, cfg.RunName, "run"))
			if err := writeTraceFile(tracer, o.traceDir, base); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// writeTraceFile renders the tracer as Chrome trace-event JSON under dir.
func writeTraceFile(tracer *telemetry.Tracer, dir, base string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("scalesim: trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, base+".trace.json"))
	if err != nil {
		return fmt.Errorf("scalesim: trace file: %w", err)
	}
	defer closeFile(f, &err)
	if err := tracer.WriteChromeTrace(f); err != nil {
		return fmt.Errorf("scalesim: write trace: %w", err)
	}
	return nil
}

// isCtxSentinel reports whether err is a bare context error — exactly what
// runLayer returns when it aborts between stages on cancellation. Stage
// failures are always wrapped with the stage name, so a stage error that
// merely wraps context.DeadlineExceeded (e.g. a backend's own timeout) is
// not a sentinel and is reported as a real layer error.
func isCtxSentinel(err error) bool {
	return err == context.Canceled || err == context.DeadlineExceeded
}

// runLayers fills out[i] with the result of topo.Layers[i]. The first
// layer of each shape (shapeGroups) runs on a pool of workers; then every
// repeat takes a copy of its first layer's result.
// On error the pool drains; the lowest-index error among the layers that
// actually ran is reported (layers past the first failure may never start,
// so under parallelism the surfaced error can differ between runs when
// several layers fail).
func runLayers(ctx context.Context, cfg *Config, o *options, topo *Topology, out []LayerResult, lc *layerCache, root *telemetry.Span) error {
	n := len(topo.Layers)
	if n == 0 {
		return ctx.Err()
	}
	rep := shapeGroups(topo.Layers)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu     sync.Mutex
		done   int
		failed = n // lowest index of a layer that failed on its own
		cause  error
	)
	forEachIndex(runCtx, n, o.parallelism, func(i int) {
		if rep[i] != i || runCtx.Err() != nil {
			return
		}
		err := runLayer(runCtx, cfg, o, &topo.Layers[i], lc, layerSpan(root, topo, i), &out[i])
		mu.Lock()
		if err != nil {
			cancel() // first error aborts the remaining layers
			// A bare context error is a layer aborted by cancellation.
			if !isCtxSentinel(err) && i < failed {
				failed, cause = i, err
			}
		}
		done++
		if o.progress != nil {
			// mu keeps callbacks serialized.
			o.progress(LayerProgress{Index: i, Total: n, Layer: topo.Layers[i].Name, Done: done, Err: err})
		}
		mu.Unlock()
	})

	if failed < n {
		return layerError(&topo.Layers[failed], cause)
	}
	// No layer failed outright; surface external cancellation, if any.
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, r := range rep {
		if r == i {
			continue
		}
		span := layerSpan(root, topo, i)
		span.SetAttr("copy_of", r)
		if o.traceFiles != "" {
			if err := copyLayerTraces(ctx, cfg, o.traceFiles, &topo.Layers[r], &topo.Layers[i]); err != nil {
				span.End()
				return layerError(&topo.Layers[i], err)
			}
		}
		span.End()
		out[i] = cloneLayerResult(&out[r])
		out[i].Layer = topo.Layers[i]
		if lc != nil {
			lc.hits.Add(1) // a repeat counts as a hit of its shape
		}
		done++
		if o.progress != nil {
			o.progress(LayerProgress{Index: i, Total: n, Layer: topo.Layers[i].Name, Done: done})
		}
	}
	return nil
}

// shapeGroups maps each layer to the first layer of its shape: rep[i] is
// the lowest index whose Layer value, Name aside, equals layers[i]'s. Names
// label reports and trace files but never change a simulation.
func shapeGroups(layers []Layer) []int {
	rep := make([]int, len(layers))
	for i := range layers {
		rep[i] = i
		l := layers[i]
		for j := 0; j < i; j++ {
			l.Name = layers[j].Name
			if rep[j] == j && l == layers[j] {
				rep[i] = j
				break
			}
		}
	}
	return rep
}

// forEachIndex runs fn(i) for every i in [0, n) on a pool of at most
// `workers` goroutines (GOMAXPROCS when workers <= 0; the caller's own when
// that is 1) and blocks until all dispatched calls return. Cancelling ctx
// stops dispatching new indices; fn is never called for the rest.
func forEachIndex(ctx context.Context, n, workers int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		// One worker needs no pool: a channel hand-off per index costs a
		// goroutine wake-up each, more than a closed-form point itself.
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func layerError(l *Layer, err error) error {
	return fmt.Errorf("scalesim: layer %q: %w", l.Name, err)
}

// layerSpan opens the span for topo.Layers[i], pinned to its own display
// track so parallel layers render as parallel lanes. Nil when detached.
func layerSpan(root *telemetry.Span, topo *Topology, i int) *telemetry.Span {
	ls := root.Child(topo.Layers[i].Name, "layer")
	ls.SetTrack(i + 1)
	ls.SetAttr("index", i)
	return ls
}

// newStageContext is a layer's pipeline state before the first stage: the
// configured dataflow and array, the lowered GEMM shape, dense filters.
func newStageContext(cfg *Config, o *options, l *Layer) *StageContext {
	m, n, k := l.GEMMDims()
	return &StageContext{
		Config:      cfg,
		ERT:         o.ert,
		Layer:       l,
		Fidelity:    o.fidelity,
		Dataflow:    cfg.Dataflow,
		Rows:        cfg.ArrayRows,
		Cols:        cfg.ArrayCols,
		M:           m,
		N:           n,
		K:           k,
		FilterRatio: 1,
	}
}

// runLayer pushes one layer through the stage pipeline into lr, consulting
// the layer cache (when enabled) before doing any work and populating it
// after. Under WriteTraces it also writes the layer's trace files. On error
// lr holds a partial result the caller discards.
func runLayer(ctx context.Context, cfg *Config, o *options, l *Layer, lc *layerCache, span *telemetry.Span, lr *LayerResult) error {
	defer span.End()
	var ckey simcache.Key
	if lc != nil {
		ckey = lc.key(l)
		if lc.lookup(ckey, l, lr) {
			span.SetAttr("cache", "hit")
			return nil
		}
		span.SetAttr("cache", "miss")
	}
	sc := newStageContext(cfg, o, l)
	*lr = LayerResult{Layer: *l, M: sc.M, N: sc.N, K: sc.K}
	if lc != nil {
		sc.cache = lc.cache
	}
	apply := runStages
	if o.traceFiles != "" {
		apply = runTracedStages
	}
	if err := apply(ctx, o, sc, lr, span); err != nil {
		return err
	}
	if lc != nil {
		lc.put(ckey, lr)
	}
	return nil
}

// runStages applies the pipeline to one layer in order, checking for
// cancellation before each stage.
func runStages(ctx context.Context, o *options, sc *StageContext, lr *LayerResult, span *telemetry.Span) error {
	for _, st := range o.stages {
		if err := ctx.Err(); err != nil {
			return err
		}
		sc.Span = span.Child(st.Name(), "stage")
		err := st.Apply(ctx, sc, lr)
		sc.Span.End()
		if err != nil {
			return fmt.Errorf("%s stage: %w", st.Name(), err)
		}
	}
	return nil
}
