package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"time"

	"scalesim"
)

// sweepWorkload runs the 16-point sweep behind a cache and renders every
// report. sweep_warm answers from one cache warmed in set-up (cache
// reads); sweep_store fills a fresh disk store and then restores it into a
// second fresh cache, every iteration (cache writes).
type sweepWorkload struct {
	points  []scalesim.SweepPoint
	store   bool
	workdir string
	rec     *recorder

	cache *scalesim.Cache // sweep_warm's warm cache
	first sweepOutputs    // the uncached sweep's outputs, the reference

	fill, restore []float64 // sweep_store phase latencies, seconds
	// Counters of the last fill and the last restore, for the ledger.
	restoreCache            scalesim.CacheStats
	fillStore, restoreStore scalesim.StoreStats
}

// sweepOutputs extends the golden values with what the cheap per-iteration
// check compares when nothing is hashed.
type sweepOutputs struct {
	runOutputs
	bytes        int64
	hits, misses int64
}

func newSweep(points []scalesim.SweepPoint, store bool, workdir string) *sweepWorkload {
	return &sweepWorkload{points: points, store: store, workdir: workdir}
}

func (w *sweepWorkload) trace(rec *recorder) { w.rec = rec }

// sweepOnce sweeps the points behind cache (nil for none) and renders all
// reports into out.
func (w *sweepWorkload) sweepOnce(parent int, cache *scalesim.Cache, out io.Writer) (sweepOutputs, error) {
	var o sweepOutputs
	sp := w.rec.begin("scalesim.sweep", parent)
	results, err := scalesim.Sweep(context.Background(), w.points,
		scalesim.WithParallelism(1), scalesim.WithCache(cache))
	w.rec.end(sp)
	if err != nil {
		return o, err
	}
	rd := w.rec.begin("report.render", parent)
	defer w.rec.end(rd)
	for _, r := range results {
		if r.Err != nil {
			return o, fmt.Errorf("point %s: %w", r.Point.Name, r.Err)
		}
		for _, rep := range r.Result.Reports().All() {
			n, err := rep.WriteTo(out)
			if err != nil {
				return o, fmt.Errorf("point %s: render %s: %w", r.Point.Name, rep.Filename(), err)
			}
			o.bytes += n
		}
		o.add(r.Result)
		o.hits += r.Result.CacheStats.Hits
		o.misses += r.Result.CacheStats.Misses
	}
	return o, nil
}

// hashedSweep is sweepOnce with the rendered bytes digested.
func (w *sweepWorkload) hashedSweep(parent int, cache *scalesim.Cache) (sweepOutputs, error) {
	h := sha256.New()
	o, err := w.sweepOnce(parent, cache, h)
	o.SHA256 = hex.EncodeToString(h.Sum(nil))
	return o, err
}

// sameAsFirst checks an iteration's outputs against the uncached
// reference. The digest is compared only where the iteration took one.
func (w *sweepWorkload) sameAsFirst(what string, o sweepOutputs) error {
	if o.SHA256 == "" {
		o.SHA256 = w.first.SHA256
	}
	if o.runOutputs != w.first.runOutputs || o.bytes != w.first.bytes {
		return fmt.Errorf("%s produced %+v (%d bytes), the uncached sweep %+v (%d bytes)",
			what, o.runOutputs, o.bytes, w.first.runOutputs, w.first.bytes)
	}
	return nil
}

// warm takes the uncached reference, then runs one warm-up pass through
// the cached path, which must render the same bytes.
func (w *sweepWorkload) warm() (err error) {
	if w.first, err = w.hashedSweep(-1, nil); err != nil {
		return err
	}
	if w.store {
		_, err = w.storeIteration()
		return err
	}
	w.cache = scalesim.NewCache(0, 0)
	o, err := w.hashedSweep(-1, w.cache)
	if err == nil {
		err = w.sameAsFirst("the cache-filling sweep", o)
	}
	return err
}

// warmIteration is one sweep_warm iteration: every layer a cache hit,
// reports rendered to io.Discard.
func (w *sweepWorkload) warmIteration() (float64, error) {
	it := w.rec.begin("iteration", -1)
	defer w.rec.end(it)
	o, err := w.sweepOnce(it, w.cache, io.Discard)
	if err == nil {
		err = w.sameAsFirst("the warm sweep", o)
	}
	if err == nil && o.misses != 0 {
		err = fmt.Errorf("the warm sweep missed the cache %d times", o.misses)
	}
	return float64(len(w.points)), err
}

// storeIteration is one sweep_store iteration: fill a fresh store through
// a fresh cache, close it, and restore it through a second fresh cache.
func (w *sweepWorkload) storeIteration() (float64, error) {
	dir, err := os.MkdirTemp(w.workdir, "store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	it := w.rec.begin("iteration", -1)
	defer w.rec.end(it)
	for _, phase := range []string{"fill", "restore"} {
		sp := w.rec.begin("scalesim.store_"+phase, it)
		t0 := time.Now()
		cache := scalesim.NewCache(0, 0)
		if err := cache.AttachStore(dir, 0); err != nil {
			return 0, err
		}
		o, err := w.hashedSweep(sp, cache)
		cacheStats := cache.Stats()
		storeStats, _ := cache.StoreStats()
		if cerr := cache.CloseStore(); err == nil {
			err = cerr
		}
		elapsed := time.Since(t0).Seconds()
		w.rec.end(sp)
		if err == nil {
			err = w.sameAsFirst("the store "+phase, o)
		}
		switch {
		case err != nil:
		case phase == "fill" && storeStats.Puts == 0:
			err = fmt.Errorf("the fill wrote nothing to the store")
		case phase == "restore" && (o.misses != 0 || storeStats.Hits == 0):
			err = fmt.Errorf("the restore simulated %d layers and read %d entries from the store", o.misses, storeStats.Hits)
		}
		if err != nil {
			return 0, err
		}
		if phase == "fill" {
			w.fill, w.fillStore = append(w.fill, elapsed), storeStats
		} else {
			w.restore, w.restoreCache, w.restoreStore = append(w.restore, elapsed), cacheStats, storeStats
		}
	}
	return float64(2 * len(w.points)), nil
}

func (w *sweepWorkload) run(deadline time.Time, minIters int, s *samples) {
	iter := w.warmIteration
	if w.store {
		iter = w.storeIteration
	}
	timedLoop(deadline, minIters, s, iter)
}

// verify renders the warm cache's answer once more with a digest: the last
// iteration must equal the first, byte for byte. sweep_store digests every
// iteration already.
func (w *sweepWorkload) verify() []string {
	if w.store {
		return nil
	}
	o, err := w.hashedSweep(-1, w.cache)
	if err == nil {
		err = w.sameAsFirst("the final warm sweep", o)
	}
	if err != nil {
		return []string{err.Error()}
	}
	return nil
}

func (w *sweepWorkload) outputs() runOutputs { return w.first.runOutputs }

func (w *sweepWorkload) close() error { return nil }

func (w *sweepWorkload) ledger(m metrics, spans []span, iters int) {
	perIter := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(iters) }
	sweep, render := total(spans, "scalesim.sweep"), total(spans, "report.render")
	m["scalesim.sweep_ms"] = perIter(sweep)
	m["report.render_ms"] = perIter(render)
	m["report.bytes"] = float64(w.first.bytes)
	m["scalesim.ledger_coverage"] = (sweep + render).Seconds() / total(spans, "iteration").Seconds()
	m["scalesim.sim_cycles"] = float64(w.first.Cycles)
	if !w.store {
		m["simcache.hit_ratio"] = w.cache.Stats().HitRate()
		return
	}
	m["simcache.hit_ratio"] = w.restoreCache.HitRate()
	m["simcache.store_hit_ratio"] = float64(w.restoreStore.Hits) / float64(w.restoreStore.Hits+w.restoreStore.Misses)
	m["scalesim.store_fill_ms_p50"] = median(w.fill) * 1e3
	m["scalesim.store_restore_ms_p50"] = median(w.restore) * 1e3
	m["diskstore.put_bytes"] = float64(w.fillStore.PutBytes)
	m["diskstore.io_errors"] = float64(w.fillStore.IOErrors + w.restoreStore.IOErrors)
}
