package scalesim

import (
	"context"
	"sync"
)

// SweepPoint is one configuration variant of a parameter sweep. Points may
// share a *Topology — runs never mutate it.
type SweepPoint struct {
	// Name labels the point in results and progress callbacks.
	Name string
	// Config is the full simulator configuration for this point.
	Config Config
	// Topology is the workload to simulate under Config.
	Topology *Topology
}

// SweepResult pairs a sweep point with its outcome. Exactly one of Result
// and Err is non-nil.
type SweepResult struct {
	Point  SweepPoint
	Result *Result
	Err    error
}

// Sweep fans workloads across configuration variants — array sizes,
// dataflows, sparsity ratios, memory technologies — on a bounded worker
// pool and returns one SweepResult per point, in input order.
//
// Points run concurrently (pool width GOMAXPROCS, or WithParallelism);
// each point's layers run sequentially so the pool is the only source of
// concurrency. Unlike Run, a failing point does not cancel its siblings:
// its error lands in SweepResult.Err and the sweep continues. Sweep itself
// returns an error only when ctx is cancelled.
//
// Within each point, Run simulates every distinct layer shape once. A
// cache attached with WithCache is shared by every point: a point whose
// simulation-relevant configuration and layer shape an earlier point
// already simulated takes the cached result, and points that vary only
// DRAM or energy knobs still share the layout analysis of unchanged
// layers. Points that run at the same time and miss on the same key each
// simulate it. Each point's Result.CacheStats reports its own hits and
// misses.
func Sweep(ctx context.Context, points []SweepPoint, opts ...Option) ([]SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	n := len(points)
	out := make([]SweepResult, n)
	if n == 0 {
		return out, ctx.Err()
	}
	var (
		mu   sync.Mutex // serializes progress callbacks across points
		done int
	)
	forEachIndex(ctx, n, o.parallelism, func(i int) {
		p := &points[i]
		out[i].Point = *p
		out[i].Result, out[i].Err = runSweepPoint(ctx, &o, &mu, p)
		if o.sweepProgress != nil {
			mu.Lock()
			done++
			o.sweepProgress(SweepPointProgress{
				Index: i, Total: n, Point: p.Name, Done: done, Err: out[i].Err,
			})
			mu.Unlock()
		}
	})
	// Points never dispatched because ctx was cancelled still owe the
	// caller the one-of-Result-and-Err contract.
	if err := ctx.Err(); err != nil {
		for i := range out {
			if out[i].Result == nil && out[i].Err == nil {
				out[i].Point = points[i]
				out[i].Err = err
			}
		}
		return out, err
	}
	return out, nil
}

// runSweepPoint runs one point sequentially, forwarding progress callbacks
// tagged with the point name. It returns exactly what
// New(p.Config).Run(ctx, p.Topology, ...) with the sweep's options returns,
// without building a Simulator or option closures per point.
func runSweepPoint(ctx context.Context, o *options, mu *sync.Mutex, p *SweepPoint) (*Result, error) {
	if err := validateRun(&p.Config, p.Topology); err != nil {
		return nil, err
	}
	po := options{ert: o.ert, fidelity: o.fidelity, parallelism: 1, stages: o.stages, cache: o.cache}
	if o.traceEnabled {
		// Each point collects its own trace, filed under the point name.
		po.traceEnabled, po.traceDir, po.traceName = true, o.traceDir, p.Name
	}
	if o.progress != nil {
		name, fn := p.Name, o.progress
		po.progress = func(lp LayerProgress) {
			lp.Point = name
			mu.Lock()
			fn(lp)
			mu.Unlock()
		}
	}
	return run(ctx, &p.Config, &po, p.Topology)
}
