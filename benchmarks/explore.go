package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"scalesim"
)

// exploreWorkload screens the whole grid analytically, promotes the
// frontier-adjacent candidates to the event tier and renders the frontier.
// An iteration is one Explore call; its work is the candidates screened.
type exploreWorkload struct {
	cfg   scalesim.Config
	topo  *scalesim.Topology
	space scalesim.Space
	size  int
	rec   *recorder

	buf      bytes.Buffer
	first    runOutputs
	screened int // of the last iteration
}

func newExplore(in *inputs) (*exploreWorkload, error) {
	cfg, topo, space, err := in.exploreInputs()
	if err != nil {
		return nil, err
	}
	return &exploreWorkload{cfg: cfg, topo: topo, space: space, size: int(space.Size())}, nil
}

func (w *exploreWorkload) trace(rec *recorder) { w.rec = rec }

func (w *exploreWorkload) iterate() (runOutputs, error) {
	var out runOutputs
	it := w.rec.begin("iteration", -1)
	defer w.rec.end(it)
	opts := []scalesim.ExploreOption{
		scalesim.WithExploreObjectives(scalesim.CyclesObjective(), scalesim.EnergyObjective()),
		scalesim.WithExploreStrategy(scalesim.GridSearch),
		scalesim.WithExploreBudget(w.size),
		scalesim.WithExploreBatchSize(8192),
		scalesim.WithPromoteTopK(16),
		scalesim.WithExploreParallelism(1),
	}
	// The screen/promote boundary is the last analytical progress
	// callback; Explore exposes no other phase signal.
	var screenEnd time.Time
	if w.rec != nil {
		opts = append(opts, scalesim.WithExploreProgress(func(p scalesim.ExploreProgress) {
			if p.Fidelity == scalesim.Analytical {
				screenEnd = time.Now()
			}
		}))
	}
	ex := w.rec.begin("scalesim.explore", it)
	start := time.Now()
	f, err := scalesim.Explore(context.Background(), w.cfg, w.topo, w.space, opts...)
	end := time.Now()
	w.rec.end(ex)
	if err != nil {
		return out, err
	}
	if !screenEnd.IsZero() {
		w.rec.add("scalesim.explore_screen", ex, start, screenEnd)
		w.rec.add("scalesim.explore_promote", ex, screenEnd, end)
	}
	if f.Screened != w.size || f.Promoted == 0 || len(f.Points) == 0 {
		return out, fmt.Errorf("screened %d of %d candidates, promoted %d, frontier of %d",
			f.Screened, w.size, f.Promoted, len(f.Points))
	}
	w.screened = f.Screened

	rd := w.rec.begin("report.render", it)
	w.buf.Reset()
	for _, r := range []*scalesim.Report{f.CSVReport(), f.JSONReport()} {
		if _, err := r.WriteTo(&w.buf); err != nil {
			return out, fmt.Errorf("render %s: %w", r.Filename(), err)
		}
	}
	w.rec.end(rd)
	for _, p := range f.Points {
		out.add(p.Result)
	}
	out.Promoted = f.Promoted
	out.SHA256 = hexDigest(w.buf.Bytes())
	return out, nil
}

func (w *exploreWorkload) warm() (err error) {
	w.first, err = w.iterate()
	return err
}

func (w *exploreWorkload) run(deadline time.Time, minIters int, s *samples) {
	timedLoop(deadline, minIters, s, func() (float64, error) {
		out, err := w.iterate()
		if err == nil && out != w.first {
			err = fmt.Errorf("iteration produced %+v, the first produced %+v", out, w.first)
		}
		return float64(w.size), err
	})
}

// verify has nothing left to do: every iteration's frontier digest is
// compared with the first.
func (w *exploreWorkload) verify() []string { return nil }

func (w *exploreWorkload) outputs() runOutputs { return w.first }

func (w *exploreWorkload) close() error { return nil }

func (w *exploreWorkload) ledger(m metrics, spans []span, iters int) {
	perIter := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(iters) }
	screen, promote := total(spans, "scalesim.explore_screen"), total(spans, "scalesim.explore_promote")
	render := total(spans, "report.render")
	m["scalesim.explore_screen_ms"] = perIter(screen)
	m["scalesim.explore_promote_ms"] = perIter(promote)
	m["report.render_ms"] = perIter(render)
	m["report.bytes"] = float64(w.buf.Len())
	m["scalesim.ledger_coverage"] = (screen + promote + render).Seconds() / total(spans, "iteration").Seconds()
	m["scalesim.sim_cycles"] = float64(w.first.Cycles)
	m["explore.promote_ratio"] = float64(w.first.Promoted) / float64(w.screened)
}
