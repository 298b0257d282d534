package scalesim

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"scalesim/internal/energy"
	"scalesim/internal/simcache"
)

// fullModelConfig enables every model pass so cached results exercise all
// pointered sub-structures (sparse rows, energy reports, memory rows).
func fullModelConfig() Config {
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 16, 16
	cfg.Energy.Enabled = true
	cfg.Memory.Enabled = true
	cfg.Layout.Enabled = true
	return cfg
}

// repeatedShapeTopology builds a ResNet-style workload: `repeats` copies of
// the same conv block (distinct names), plus one distinct tail layer.
func repeatedShapeTopology(repeats int) *Topology {
	topo := &Topology{Name: "blocks"}
	for i := 0; i < repeats; i++ {
		topo.Layers = append(topo.Layers, Layer{
			Name: fmt.Sprintf("block%d", i), Kind: 0, /* Conv */
			IfmapH: 14, IfmapW: 14, FilterH: 3, FilterW: 3,
			Channels: 32, NumFilters: 32, Stride: 1,
		})
	}
	topo.Layers = append(topo.Layers, Layer{
		Name: "tail", Kind: 1 /* GEMM */, M: 64, N: 48, K: 96,
	})
	return topo
}

// TestCachedMatchesUncachedByteIdentical is the tentpole's correctness
// bar: a cached run (cold and warm) must produce reports byte-identical
// to an uncached run, through ReportSet.WriteTo, with every model enabled.
func TestCachedMatchesUncachedByteIdentical(t *testing.T) {
	cfg := fullModelConfig()
	topo := repeatedShapeTopology(4)
	ctx := context.Background()

	plain, err := New(cfg).Run(ctx, topo)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0, 0)
	cold, err := New(cfg).Run(ctx, topo, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := New(cfg).Run(ctx, topo, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.Layers, cold.Layers) {
		t.Error("cold cached run differs from uncached run")
	}
	if !reflect.DeepEqual(plain.Layers, warm.Layers) {
		t.Error("warm cached run differs from uncached run")
	}
	ref := reportBytes(t, plain)
	if !bytes.Equal(ref, reportBytes(t, cold)) {
		t.Error("cold cached reports not byte-identical to uncached")
	}
	if !bytes.Equal(ref, reportBytes(t, warm)) {
		t.Error("warm cached reports not byte-identical to uncached")
	}

	// 4 repeated blocks + 1 tail: the cold run must simulate exactly the
	// two distinct shapes and serve the other three layers from cache.
	if cold.CacheStats.Misses != 2 || cold.CacheStats.Hits != 3 {
		t.Errorf("cold stats %+v, want 2 misses, 3 hits", cold.CacheStats)
	}
	if warm.CacheStats.Misses != 0 || warm.CacheStats.Hits != 5 {
		t.Errorf("warm stats %+v, want 0 misses, 5 hits", warm.CacheStats)
	}
	if plain.CacheStats != (RunCacheStats{}) {
		t.Errorf("uncached run has cache stats %+v", plain.CacheStats)
	}
}

// TestCacheSparseRunsByteIdentical covers the sparse compute path, whose
// results carry the pointered SparseRow that must be deep-copied per hit
// and named after each hitting layer in SPARSE_REPORT.
func TestCacheSparseRunsByteIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 16, 16
	cfg.Sparsity.Enabled = true
	cfg.Sparsity.BlockSize = 4
	cfg.Energy.Enabled = true
	sp, err := ParseSparsity("2:4")
	if err != nil {
		t.Fatal(err)
	}
	topo := repeatedShapeTopology(3).WithSparsity(sp)
	ctx := context.Background()

	plain, err := New(cfg).Run(ctx, topo)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0, 0)
	for pass := 0; pass < 2; pass++ {
		got, err := New(cfg).Run(ctx, topo, WithCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Layers, got.Layers) {
			t.Errorf("pass %d: sparse cached run differs from uncached", pass)
		}
		if !bytes.Equal(reportBytes(t, plain), reportBytes(t, got)) {
			t.Errorf("pass %d: sparse reports not byte-identical", pass)
		}
	}
	// Every layer keeps its own name in the sparse report rows.
	warm, err := New(cfg).Run(ctx, topo, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := range warm.Layers {
		if warm.Layers[i].Sparse != nil {
			want = append(want, topo.Layers[i].Name)
		}
	}
	rows := reportRecords(t, warm.Reports().Sparse)
	var got []string
	for _, row := range rows[1:] {
		got = append(got, row[0])
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("SPARSE_REPORT rows named %q, want %q", got, want)
	}
}

// reportRecords parses a rendered CSV report, header first.
func reportRecords(t *testing.T, r *Report) [][]string {
	t.Helper()
	if r == nil {
		t.Fatal("report missing")
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestCacheHitsAreIsolatedCopies: mutating one layer's result (including
// its maps and pointered rows) must not leak into the cache or into other
// layers served from the same entry.
func TestCacheHitsAreIsolatedCopies(t *testing.T) {
	cfg := fullModelConfig()
	topo := repeatedShapeTopology(2)
	cache := NewCache(0, 0)
	ctx := context.Background()

	first, err := New(cfg).Run(ctx, topo, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize everything reachable from the first result.
	for i := range first.Layers {
		l := &first.Layers[i]
		l.ComputeCycles = -1
		l.Memory.StallCycles = -999
		if l.Energy != nil {
			for c := range l.Energy.PerComponent {
				l.Energy.PerComponent[c] = -1
			}
			l.Energy.TotalPJ = -1
		}
	}
	second, err := New(cfg).Run(ctx, topo, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheStats.Hits != int64(len(topo.Layers)) {
		t.Fatalf("second run stats %+v, want all hits", second.CacheStats)
	}
	plain, err := New(cfg).Run(ctx, topo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Layers, second.Layers) {
		t.Error("mutating a cached result's copy corrupted the cache")
	}
}

// TestCacheSingleFlightParallel: a run simulates each distinct shape once
// and copies it to the repeats, so hit/miss counts are exact at any
// parallelism (and on any core count) — not just when layers run
// sequentially.
func TestCacheSingleFlightParallel(t *testing.T) {
	cfg := fullModelConfig()
	topo := repeatedShapeTopology(7) // 7 identical blocks + 1 distinct tail
	ctx := context.Background()

	plain, err := New(cfg).Run(ctx, topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		cache := NewCache(0, 0)
		res, err := New(cfg).Run(ctx, topo, WithCache(cache), WithParallelism(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if res.CacheStats.Misses != 2 || res.CacheStats.Hits != 6 {
			t.Errorf("parallelism %d: stats %+v, want exactly 2 misses, 6 hits",
				par, res.CacheStats)
		}
		if !reflect.DeepEqual(plain.Layers, res.Layers) {
			t.Errorf("parallelism %d: cached run differs from uncached", par)
		}
	}
}

// TestCacheNoCrossContamination shares one cache across sweep points that
// differ in exactly one fingerprinted field each; every point must match
// its own uncached run bit for bit.
func TestCacheNoCrossContamination(t *testing.T) {
	base := fullModelConfig()
	variants := map[string]func(*Config){
		"baseline":      func(c *Config) {},
		"array":         func(c *Config) { c.ArrayRows, c.ArrayCols = 8, 8 },
		"dataflow":      func(c *Config) { c.Dataflow = WeightStationary },
		"sram":          func(c *Config) { c.IfmapSRAMKB = 64 },
		"bandwidth":     func(c *Config) { c.BandwidthWords = 4 },
		"dram-channels": func(c *Config) { c.Memory.Channels = 2 },
		"dram-tech":     func(c *Config) { c.Memory.Technology = "LPDDR4" },
		"layout-banks":  func(c *Config) { c.Layout.Banks = 4 },
		"energy-gating": func(c *Config) { c.Energy.ClockGating = false },
		"energy-freq":   func(c *Config) { c.Energy.FrequencyMHz = 700 },
		// RunName is deliberately NOT fingerprinted: see below.
	}
	topo := repeatedShapeTopology(2)
	ctx := context.Background()
	cache := NewCache(0, 0)

	var points []SweepPoint
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	for _, name := range names {
		cfg := base
		variants[name](&cfg)
		points = append(points, SweepPoint{Name: name, Config: cfg, Topology: topo})
	}
	results, err := Sweep(ctx, points, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range results {
		if sr.Err != nil {
			t.Fatalf("point %s: %v", points[i].Name, sr.Err)
		}
		solo, err := New(points[i].Config).Run(ctx, topo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo.Layers, sr.Result.Layers) {
			t.Errorf("point %s: shared-cache sweep result differs from uncached run", points[i].Name)
		}
		if !bytes.Equal(reportBytes(t, solo), reportBytes(t, sr.Result)) {
			t.Errorf("point %s: reports not byte-identical to uncached run", points[i].Name)
		}
	}

	// RunName is a label, not a simulation input: two configs differing
	// only in RunName share entries.
	renamed := base
	renamed.RunName = "other_label"
	r1, err := New(base).Run(ctx, topo, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(renamed).Run(ctx, topo, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheStats.Hits == 0 || r2.CacheStats.Misses != 0 {
		t.Errorf("RunName-only variants did not share cache entries: %+v / %+v",
			r1.CacheStats, r2.CacheStats)
	}
}

// TestCacheDistinguishesERT: a customized energy reference table is part
// of the fingerprint — content, not pointer identity.
func TestCacheDistinguishesERT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Energy.Enabled = true
	topo := repeatedShapeTopology(1)
	cache := NewCache(0, 0)
	ctx := context.Background()

	if _, err := New(cfg).Run(ctx, topo, WithCache(cache)); err != nil {
		t.Fatal(err)
	}
	// Same contents, different allocation: must hit.
	same, err := New(cfg).Run(ctx, topo, WithCache(cache), WithERT(DefaultERT()))
	if err != nil {
		t.Fatal(err)
	}
	if same.CacheStats.Misses != 0 {
		t.Errorf("identical ERT contents missed: %+v", same.CacheStats)
	}
	// Changed contents: must not hit.
	hot := DefaultERT()
	hot.Entries["mac"]["mac_random"] *= 2
	diff, err := New(cfg).Run(ctx, topo, WithCache(cache), WithERT(hot))
	if err != nil {
		t.Fatal(err)
	}
	if diff.CacheStats.Hits != 0 {
		t.Errorf("modified ERT produced hits: %+v", diff.CacheStats)
	}
	solo, err := New(cfg).Run(ctx, topo, WithERT(hot))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solo.Layers, diff.Layers) {
		t.Error("modified-ERT cached run differs from uncached run")
	}
}

// TestCacheEvictionUnderSmallLimit: a cache big enough for only a few
// results must evict but never return wrong data.
func TestCacheEvictionUnderSmallLimit(t *testing.T) {
	cfg := fullModelConfig()
	topo := &Topology{Name: "distinct"}
	for i := 0; i < 6; i++ {
		topo.Layers = append(topo.Layers, Layer{
			Name: fmt.Sprintf("g%d", i), Kind: 1, M: 32 + 8*i, N: 32, K: 48,
		})
	}
	cache := NewCache(2, 0) // at most two cached layer results
	ctx := context.Background()

	cached, err := New(cfg).Run(ctx, topo, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(cfg).Run(ctx, topo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Layers, cached.Layers) {
		t.Error("eviction-pressured run differs from uncached run")
	}
	st := cache.Stats()
	if st.Entries > 2 {
		t.Errorf("cache holds %d entries, limit 2", st.Entries)
	}
	if st.Evictions == 0 {
		t.Error("six distinct shapes in a two-entry cache caused no evictions")
	}
	// A second run still works (and still matches) even though most
	// entries were evicted.
	again, err := New(cfg).Run(ctx, topo, WithCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Layers, again.Layers) {
		t.Error("post-eviction rerun differs from uncached run")
	}
}

// TestCacheConcurrentSweepSharedCache runs many sweep points over one
// cache with full parallelism; meant to be exercised under -race. Every
// point must equal its uncached twin.
func TestCacheConcurrentSweepSharedCache(t *testing.T) {
	topo := repeatedShapeTopology(3)
	ctx := context.Background()

	var points []SweepPoint
	for i := 0; i < 12; i++ {
		cfg := fullModelConfig()
		// Half the points repeat a config (cache hits across concurrent
		// points), half are distinct (concurrent inserts).
		cfg.Memory.Channels = 1 + i%2
		cfg.Energy.FrequencyMHz = float64(500 + 100*(i%3))
		points = append(points, SweepPoint{
			Name: fmt.Sprintf("p%d", i), Config: cfg, Topology: topo,
		})
	}
	results, err := Sweep(ctx, points, WithCache(NewCache(0, 0)), WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range results {
		if sr.Err != nil {
			t.Fatalf("point %d: %v", i, sr.Err)
		}
		solo, err := New(points[i].Config).Run(ctx, topo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo.Layers, sr.Result.Layers) {
			t.Errorf("point %d: concurrent shared-cache result differs from uncached", i)
		}
	}

	// Run one point at a time, the 12 points cover 6 distinct configs × 2
	// distinct shapes = 12 distinct keys, so exactly 12 of the 48 layers
	// miss. Concurrent points do not coalesce on a key, so only this
	// sequential sweep pins the count.
	results, err = Sweep(ctx, points, WithCache(NewCache(0, 0)), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var hits, misses int64
	for _, sr := range results {
		hits += sr.Result.CacheStats.Hits
		misses += sr.Result.CacheStats.Misses
	}
	if misses != 12 || hits != 36 {
		t.Errorf("aggregate stats hits=%d misses=%d, want 36/12", hits, misses)
	}
}

// TestCacheAnonymousLayerMemoryRow: a nameless layer whose memory model
// ran has a MEMORY_REPORT row, both when it populates the cache entry and
// when a named same-shape layer takes the hit.
func TestCacheAnonymousLayerMemoryRow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 8, 8
	cfg.Memory.Enabled = true
	topo := &Topology{Name: "anon", Layers: []Layer{
		{Name: "", Kind: 1, M: 24, N: 16, K: 32},
		{Name: "named", Kind: 1, M: 24, N: 16, K: 32},
	}}
	ctx := context.Background()

	plain, err := New(cfg).Run(ctx, topo, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := New(cfg).Run(ctx, topo, WithCache(NewCache(0, 0)), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Layers, cached.Layers) {
		t.Error("anonymous-layer cached run differs from uncached")
	}
	if !bytes.Equal(reportBytes(t, plain), reportBytes(t, cached)) {
		t.Error("anonymous-layer reports not byte-identical")
	}
	rows := reportRecords(t, cached.Reports().Memory)
	if len(rows) != 3 {
		t.Fatalf("MEMORY_REPORT has %d rows, want a header and one per layer: %q", len(rows), rows)
	}
	if rows[1][0] != "" || rows[1][1] != "160" {
		t.Errorf("first row %q, want the nameless layer's (,160,...)", rows[1])
	}
	if rows[2][0] != "named" || !reflect.DeepEqual(rows[1][1:], rows[2][1:]) {
		t.Errorf("second row %q, want named's, equal to the first but for the name", rows[2])
	}
}

// fingerprintedStage encodes its parameter in its CacheFingerprint, so
// changing it must change the key.
type fingerprintedStage struct{ scale int64 }

func (f fingerprintedStage) Name() string { return "scaled" }
func (f fingerprintedStage) CacheFingerprint() string {
	return fmt.Sprintf("test/scaled/v1/%d", f.scale)
}
func (f fingerprintedStage) Apply(_ context.Context, _ *StageContext, lr *LayerResult) error {
	lr.TotalCycles += f.scale
	return nil
}

func TestCacheCustomFingerprintedStage(t *testing.T) {
	cfg := DefaultConfig()
	topo := repeatedShapeTopology(1)
	cache := NewCache(0, 0)
	ctx := context.Background()

	runWith := func(scale int64) *Result {
		t.Helper()
		res, err := New(cfg).Run(ctx, topo,
			WithCache(cache), WithStages(append(DefaultStages(), fingerprintedStage{scale})...))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := runWith(10)
	b := runWith(10)
	if b.CacheStats.Misses != 0 {
		t.Errorf("same fingerprint missed: %+v", b.CacheStats)
	}
	if !reflect.DeepEqual(a.Layers, b.Layers) {
		t.Error("cached custom-stage run differs")
	}
	c := runWith(20)
	if c.CacheStats.Hits != 0 {
		t.Errorf("different stage parameter hit the cache: %+v", c.CacheStats)
	}
	if c.TotalCycles() == a.TotalCycles() {
		t.Error("stage parameter change had no effect (test is vacuous)")
	}
}

// TestSharedCacheOption: WithCache(SharedCache()) wires the process-wide
// cache.
func TestSharedCacheOption(t *testing.T) {
	SharedCache().Purge()
	defer SharedCache().Purge() // leave no cross-test state

	cfg := DefaultConfig()
	topo := repeatedShapeTopology(1)
	ctx := context.Background()
	if _, err := New(cfg).Run(ctx, topo, WithCache(SharedCache())); err != nil {
		t.Fatal(err)
	}
	res, err := New(cfg).Run(ctx, topo, WithCache(SharedCache()))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheStats.Misses != 0 || res.CacheStats.Hits == 0 {
		t.Errorf("second shared-cache run stats %+v, want all hits", res.CacheStats)
	}
	if st := SharedCache().Stats(); st.Entries == 0 {
		t.Error("shared cache empty after two runs")
	}
}

// TestCacheKeysPinned pins the bytes of every key the root package derives
// — layer keys at both fidelities and under a caller's ERT, and the layout
// memo key — to the values the original unbuffered
// reflection hasher produced. Persisted stores stay readable only while
// these hold; a deliberate change must bump simcache.SchemaVersion and
// re-pin.
func TestCacheKeysPinned(t *testing.T) {
	conv := Layer{Name: "conv", Kind: Conv, IfmapH: 56, IfmapW: 56, FilterH: 3, FilterW: 3,
		Channels: 64, NumFilters: 64, Stride: 1}
	gemm := Layer{Name: "fc", Kind: GEMM, M: 64, N: 48, K: 96}
	cfg := DefaultConfig()
	layerKey := func(ert *ERT, f Fidelity, l Layer) string {
		o := defaultOptions()
		o.fidelity = f
		if ert != nil {
			o.ert = ert
		}
		return fmt.Sprintf("%x", newLayerCache(NewCache(0, 0), &cfg, &o).key(&l))
	}
	for _, r := range []struct{ name, got, want string }{
		{"conv/event", layerKey(nil, EventDriven, conv), "e7d26f8098bf2bc3bc7be7a66e6de846252a19c8a468caef18eda3fe3d450c1b"},
		{"conv/analytical", layerKey(nil, Analytical, conv), "ca9a82f3ef80bfc4df9224cb32a2a5d98340a4235ee190018cce082836027762"},
		{"gemm/event", layerKey(nil, EventDriven, gemm), "32c5d7d2526109635ba49e2600c387d3ed5e14bafbaabdbcd64e7aa4906245eb"},
		{"gemm/analytical", layerKey(nil, Analytical, gemm), "1602b07bf89345b605e84c3e365662612d81ff4401b630cac6a0825ca079ceaa"},
		{"conv/pnr-ert", layerKey(energy.PnR65nm(), EventDriven, conv), "d78424c5363768dc5daa5410ef8c5cf92d80f95c7f603617314148a4c2152439"},
	} {
		if r.got != r.want {
			t.Errorf("layer key %s = %s, want %s", r.name, r.got, r.want)
		}
	}

	// The memo key is computed inside Apply; it is pinned by what a run
	// leaves in the cache.
	lcfg := DefaultConfig()
	lcfg.Layout.Enabled = true
	lc := NewCache(0, 0)
	if _, err := New(lcfg, WithCache(lc)).Run(context.Background(), &Topology{Name: "t", Layers: []Layer{conv}}); err != nil {
		t.Fatal(err)
	}
	const memoKey = "faeedce43fa4f19bc657b30b36b3f4752e602274ed7fa17903caac55b03e755d"
	var k simcache.Key
	if _, err := hex.Decode(k[:], []byte(memoKey)); err != nil {
		t.Fatal(err)
	}
	if v, ok := lc.c.Get(k); !ok {
		t.Errorf("layout memo key %s: no cache entry", memoKey)
	} else if _, ok := v.(float64); !ok {
		t.Errorf("layout memo entry is %T, want float64", v)
	}
}

// TestLayerKeyAllocs bounds the allocations of the warm path's
// fingerprints (counts, not time): a layer key allocates its Hasher and
// nothing per field, and a run's base key with the default ERT re-encodes
// only the Config. The hasher that fed every field to SHA-256 as it went
// made 36 and 338.
func TestLayerKeyAllocs(t *testing.T) {
	cfg := DefaultConfig()
	o := defaultOptions()
	cache := NewCache(0, 0)
	l := Layer{Name: "conv", Kind: Conv, IfmapH: 56, IfmapW: 56, FilterH: 3, FilterW: 3,
		Channels: 64, NumFilters: 64, Stride: 1}
	lc := newLayerCache(cache, &cfg, &o)
	if n := testing.AllocsPerRun(100, func() { lc.key(&l) }); n > 2 {
		t.Errorf("layerCache.key: %v allocations, want ≤ 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { newLayerCache(cache, &cfg, &o) }); n > 6 {
		t.Errorf("newLayerCache with the default ERT: %v allocations, want ≤ 6", n)
	}
}
