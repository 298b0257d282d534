package scalesim

import (
	"sync"
	"sync/atomic"

	"scalesim/internal/diskstore"
	"scalesim/internal/energy"
	"scalesim/internal/simcache"
)

// CacheStats is a point-in-time snapshot of a Cache: hit/miss/eviction
// counters since construction (or Purge) and current occupancy.
type CacheStats = simcache.Stats

// Cache is a content-addressed, bounded LRU cache of layer simulation
// results, shared across Run and Sweep calls.
//
// Every (configuration, stage pipeline, layer shape) triple is
// fingerprinted; when a run's layer agrees on all three with a result an
// earlier run or sweep point stored, the simulation is skipped and a deep
// copy of the cached LayerResult is returned. Layer names are deliberately
// excluded from the fingerprint (they label reports, they do not change
// the simulation). Repeated shapes within one topology need no cache: Run
// groups them and looks up only the first layer of each shape.
//
// Beyond whole layers, the cache also memoizes the data-layout (bank
// conflict) slowdown, whose inputs are only the layout section, the array
// and the layer shape. A sweep that varies only DRAM or energy knobs
// therefore still reuses that analysis for unchanged layers even though
// the whole-layer fingerprints differ. WriteTraces runs without a cache,
// whatever WithCache says: a cached layer skips the replay it traces.
//
// A Cache is safe for concurrent use: one cache may back many simultaneous
// Run and Sweep calls; two that miss on one key at once both simulate it.
// Cached values are deep-copied on insertion and on every hit, so callers
// may freely mutate results.
type Cache struct {
	c *simcache.Cache

	// storeMu guards the optional persistent second tier (AttachStore).
	storeMu  sync.Mutex
	store    *diskstore.Store
	storeDir string
	// storeDegraded is set when the degradation ladder detached a dying
	// store mid-serve (see Cache.degradeStore); readable without storeMu so
	// metrics can poll it from the serve loop.
	storeDegraded atomic.Bool
}

// NewCache returns an empty cache bounded to at most maxEntries cached
// results and approximately maxBytes of accounted result memory.
// Non-positive limits select the defaults (4096 entries, 256 MiB).
func NewCache(maxEntries int, maxBytes int64) *Cache {
	return &Cache{c: simcache.New(maxEntries, maxBytes)}
}

// Stats snapshots the cache's cumulative counters and current occupancy.
// Hits and Misses count lookups: one per distinct layer shape per run,
// plus the layout memo's. Result.CacheStats counts per layer.
func (c *Cache) Stats() CacheStats { return c.c.Stats() }

// Purge empties the cache and resets its statistics.
func (c *Cache) Purge() { c.c.Purge() }

var (
	sharedCacheOnce sync.Once
	sharedCache     *Cache
)

// SharedCache returns the process-wide cache, created with default bounds
// on first use. Independent subsystems that simulate overlapping
// configurations share hits through it: pass WithCache(SharedCache()).
func SharedCache() *Cache {
	sharedCacheOnce.Do(func() { sharedCache = NewCache(0, 0) })
	return sharedCache
}

// RunCacheStats reports the layer cache's effectiveness for one Run, per
// layer: the first layer of each shape counts its lookup's outcome, and
// each repeat counts as a hit. A run without whole-layer caching reports
// zero. Layout-memo hits are not counted here; they appear in Cache.Stats.
type RunCacheStats struct {
	// Hits is the number of layers not simulated: served from the cache
	// or copied from an earlier layer of the same shape.
	Hits int64
	// Misses is the number of layers simulated (and then cached).
	Misses int64
}

// layerCache is the per-run caching handle: the shared cache plus the
// fingerprint of everything that is constant across the run's layers
// (configuration, energy table, stage pipeline) and per-run hit counters.
type layerCache struct {
	cache        *simcache.Cache
	base         simcache.Key
	hits, misses atomic.Int64
}

// defaultERTEncoding is sharedDefaultERT's key encoding. That table is
// never written, so it is encoded once; a table passed with WithERT is
// encoded on every Run, because its owner may change it between runs.
var defaultERTEncoding = simcache.Encode(sharedDefaultERT)

// newLayerCache builds the per-run handle, or returns nil when caching is
// off or the stage pipeline is not pure (see pureStages).
func newLayerCache(c *Cache, cfg *Config, o *options) *layerCache {
	if c == nil || !pureStages(o.stages) {
		return nil
	}
	h := simcache.NewHasher()
	// v2: the simulation fidelity joined the fingerprint — an Analytical
	// result must never answer an EventDriven request (and vice versa),
	// within a process or across the persistent store.
	h.String("scalesim/layer/v2")
	h.Value(fingerprintConfig(cfg))
	h.Int(int64(o.fidelity))
	if o.ert == sharedDefaultERT {
		h.Encoded(defaultERTEncoding)
	} else {
		h.Value(o.ert)
	}
	for _, st := range o.stages {
		h.String(st.(StageFingerprinter).CacheFingerprint())
	}
	return &layerCache{cache: c.c, base: h.Sum()}
}

// pureStages reports whether every stage declares a CacheFingerprint, so
// that a layer's result depends only on (Config, ERT, shape) and may be
// reused for another layer of that shape, in a run or across runs.
func pureStages(stages []Stage) bool {
	for _, st := range stages {
		if _, ok := st.(StageFingerprinter); !ok {
			return false
		}
	}
	return true
}

// fingerprintConfig returns the configuration as hashed into cache keys:
// everything except RunName, which labels reports and trace files but
// never changes simulation results. Every other field — array shape, SRAM
// sizes, dataflow, bandwidth, word size and the sparsity, memory, layout,
// energy and multi-core sections — is fingerprinted, so sweep points that
// differ in any of them can never share an entry.
func fingerprintConfig(cfg *Config) Config {
	cc := *cfg
	cc.RunName = ""
	return cc
}

// key fingerprints one layer on top of the run-constant base. The name is
// excluded: two layers differing only in name are the same simulation.
func (lc *layerCache) key(l *Layer) simcache.Key {
	h := simcache.NewHasher()
	h.Bytes(lc.base[:])
	ll := *l
	ll.Name = ""
	h.Value(ll)
	return h.Sum()
}

// lookup sets dst to a deep copy of the result cached under key, relabelled
// with l, and reports whether there was one; either way it counts the
// outcome. A miss leaves dst alone.
func (lc *layerCache) lookup(key simcache.Key, l *Layer, dst *LayerResult) bool {
	v, ok := lc.cache.Get(key)
	if !ok {
		lc.misses.Add(1)
		return false
	}
	lc.hits.Add(1)
	*dst = cloneLayerResult(v.(*LayerResult))
	dst.Layer = *l
	return true
}

// put stores a deep copy of lr so later caller mutations cannot corrupt
// the cache.
func (lc *layerCache) put(key simcache.Key, lr *LayerResult) {
	c := cloneLayerResult(lr)
	lc.cache.Put(key, &c, layerResultSize(lr))
}

// stats returns this run's hit/miss counters.
func (lc *layerCache) stats() RunCacheStats {
	return RunCacheStats{Hits: lc.hits.Load(), Misses: lc.misses.Load()}
}

// cloneLayerResult deep-copies a layer result, including the pointered
// sparse row, energy report (with its component map) and partition.
func cloneLayerResult(lr *LayerResult) LayerResult {
	out := *lr
	if lr.Sparse != nil {
		s := *lr.Sparse
		out.Sparse = &s
	}
	if lr.Partition != nil {
		p := *lr.Partition
		out.Partition = &p
	}
	if lr.Energy != nil {
		e := *lr.Energy
		if lr.Energy.PerComponent != nil {
			e.PerComponent = make(map[energy.Component]float64, len(lr.Energy.PerComponent))
			for c, pj := range lr.Energy.PerComponent {
				e.PerComponent[c] = pj
			}
		}
		out.Energy = &e
	}
	return out
}

// layerResultSize estimates the retained bytes of a cached result for the
// cache's byte accounting. It need not be exact — only proportional enough
// that the byte bound means something.
func layerResultSize(lr *LayerResult) int64 {
	size := int64(512) // flat struct, headers, map overhead
	size += int64(len(lr.Layer.Name))
	if lr.Sparse != nil {
		size += 128 + int64(len(lr.Sparse.Representation)+len(lr.Sparse.Ratio))
	}
	if lr.Partition != nil {
		size += 32
	}
	if lr.Energy != nil {
		size += 128 + 48*int64(len(lr.Energy.PerComponent))
	}
	return size
}
