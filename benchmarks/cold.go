package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"scalesim"
)

// coldWorkload runs its points uncached, one Run each, and renders every
// report: event_cold and sparse_cold. An iteration is one pass over all
// points; its work is the simulated cycles it produced.
type coldWorkload struct {
	points []coldPoint
	rec    *recorder
	// stages is the pipeline handed to Run: nil selects the default, the
	// traced run substitutes the timed wrappers.
	stages  []scalesim.Stage
	runSpan int // span of the Run in flight, parent of its stage spans

	buf     bytes.Buffer
	first   runOutputs
	results []*scalesim.Result // the last iteration's, per point
}

func newCold(points []coldPoint) *coldWorkload { return &coldWorkload{points: points} }

// timedStage delegates to a built-in stage inside a span. It forwards the
// optional fingerprint and fidelity interfaces so the pipeline behaves as
// the default one — but must never be combined with a cache: newLayerCache
// type-asserts the built-in memory stage to relabel cached memory rows.
type timedStage struct {
	scalesim.Stage
	w *coldWorkload
}

func (t timedStage) Apply(ctx context.Context, sc *scalesim.StageContext, lr *scalesim.LayerResult) error {
	id := t.w.rec.begin("scalesim.stage_"+t.Name(), t.w.runSpan)
	err := t.Stage.Apply(ctx, sc, lr)
	t.w.rec.end(id)
	return err
}

func (t timedStage) CacheFingerprint() string {
	return t.Stage.(scalesim.StageFingerprinter).CacheFingerprint()
}

func (t timedStage) FidelityLadder() []scalesim.Fidelity {
	return t.Stage.(scalesim.StageFidelity).FidelityLadder()
}

func (w *coldWorkload) trace(rec *recorder) {
	w.rec = rec
	w.stages = nil
	for _, st := range scalesim.DefaultStages() {
		w.stages = append(w.stages, timedStage{Stage: st, w: w})
	}
}

// iterate simulates every point and renders its reports.
func (w *coldWorkload) iterate() (runOutputs, error) {
	var out runOutputs
	it := w.rec.begin("iteration", -1)
	defer w.rec.end(it)
	w.buf.Reset()
	w.results = w.results[:0]
	for _, p := range w.points {
		w.runSpan = w.rec.begin("scalesim.run", it)
		res, err := scalesim.New(p.cfg).Run(context.Background(), p.topo,
			scalesim.WithParallelism(1), scalesim.WithStages(w.stages...))
		w.rec.end(w.runSpan)
		if err != nil {
			return out, fmt.Errorf("%s: %w", p.name, err)
		}
		rd := w.rec.begin("report.render", it)
		for _, r := range res.Reports().All() {
			if _, err := r.WriteTo(&w.buf); err != nil {
				return out, fmt.Errorf("%s: render %s: %w", p.name, r.Filename(), err)
			}
		}
		w.rec.end(rd)
		out.add(res)
		w.results = append(w.results, res)
	}
	out.SHA256 = hexDigest(w.buf.Bytes())
	return out, nil
}

func (w *coldWorkload) warm() (err error) {
	w.first, err = w.iterate()
	return err
}

func (w *coldWorkload) run(deadline time.Time, minIters int, s *samples) {
	timedLoop(deadline, minIters, s, func() (float64, error) {
		out, err := w.iterate()
		if err == nil && out != w.first {
			err = fmt.Errorf("iteration produced %+v, the first produced %+v", out, w.first)
		}
		return float64(out.Cycles), err
	})
}

// verify has nothing left to do: every iteration is compared with the
// first, digest included.
func (w *coldWorkload) verify() []string { return nil }

func (w *coldWorkload) outputs() runOutputs { return w.first }

func (w *coldWorkload) close() error { return nil }

func (w *coldWorkload) ledger(m metrics, spans []span, iters int) {
	perIter := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(iters) }
	var stages time.Duration
	for _, st := range []string{"compute", "layout", "memory", "energy"} {
		d := total(spans, "scalesim.stage_"+st)
		m["scalesim.stage_"+st+"_ms"] = perIter(d)
		stages += d
	}
	m["scalesim.run_self_ms"] = perIter(totalSelf(spans, "scalesim.run"))
	m["report.render_ms"] = perIter(total(spans, "report.render"))
	m["report.bytes"] = float64(w.buf.Len())
	m["scalesim.ledger_coverage"] = (stages + total(spans, "report.render")).Seconds() / total(spans, "iteration").Seconds()
	m["scalesim.sim_cycles"] = float64(w.first.Cycles)

	// Simulated statistics of the modelled memory system, summed over
	// every layer of every point.
	var requests, hits, lookups, stalls, queueFull int64
	var latSum, worst float64
	for _, res := range w.results {
		for i := range res.Layers {
			l := &res.Layers[i]
			requests += l.Memory.Requests
			hits += l.Memory.RowHits
			lookups += l.Memory.RowHits + l.Memory.RowMisses + l.Memory.RowConflicts
			stalls += l.Memory.StallCycles
			queueFull += l.Memory.QueueFullCyc
			latSum += l.Memory.AvgReadLatency * float64(l.Memory.Requests)
			worst = math.Max(worst, l.LayoutSlowdown)
		}
	}
	m["sram.stall_cycles"] = float64(stalls)
	m["sram.queue_full_cycles"] = float64(queueFull)
	m["dram.requests"] = float64(requests)
	if lookups > 0 {
		m["dram.row_hit_rate"] = float64(hits) / float64(lookups)
	}
	if requests > 0 {
		m["dram.avg_read_latency_cycles"] = latSum / float64(requests)
	}
	m["layout.worst_slowdown"] = worst
	w.paperLedger(m)
}

// paperLedger compares the ViT-base array scaling with the two ratios the
// paper's abstract states: latency falls 6.53x from 32x32 to 128x128 and
// energy rises 2.86x. The repository holds no other reference results, so
// beyond these two ratios the model is unvalidated.
func (w *coldWorkload) paperLedger(m metrics) {
	byArray := map[int]*scalesim.Result{}
	for i, p := range w.points {
		if p.cfg.Dataflow == scalesim.OutputStationary && p.cfg.Memory.Technology == "DDR4" {
			byArray[p.cfg.ArrayRows] = w.results[i]
		}
	}
	small, large := byArray[32], byArray[128]
	if small == nil || large == nil {
		return
	}
	latency := float64(small.TotalCycles()) / float64(large.TotalCycles())
	energy := large.TotalEnergyMJ() / small.TotalEnergyMJ()
	m["scalesim.paper_rel_err"] = math.Max(math.Abs(latency-6.53)/6.53, math.Abs(energy-2.86)/2.86)
	best, bestEdP := 0, math.Inf(1)
	for arr, res := range byArray {
		if edp := res.EdP(); edp < bestEdP || (edp == bestEdP && arr < best) {
			best, bestEdP = arr, edp
		}
	}
	m["energy.best_edp_array"] = float64(best)
}
