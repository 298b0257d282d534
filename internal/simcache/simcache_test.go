package simcache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"
)

type fakeERT struct {
	Name    string
	Entries map[string]map[string]float64
	Leak    float64
}

func sampleERT() fakeERT {
	return fakeERT{
		Name: "65nm",
		Entries: map[string]map[string]float64{
			"mac":  {"random": 2.2, "gated": 0.1},
			"sram": {"read": 12.0, "write": 13.5},
		},
		Leak: 0.02,
	}
}

func TestHasherDeterministicAcrossMapOrder(t *testing.T) {
	// Hash the same logical value many times; map iteration order must not
	// leak into the key.
	var first Key
	for i := 0; i < 50; i++ {
		h := NewHasher()
		h.Value(sampleERT())
		k := h.Sum()
		if i == 0 {
			first = k
			continue
		}
		if k != first {
			t.Fatalf("iteration %d: key %x differs from first %x", i, k, first)
		}
	}
}

func TestHasherDistinguishesValues(t *testing.T) {
	key := func(v any) Key {
		h := NewHasher()
		h.Value(v)
		return h.Sum()
	}
	a := sampleERT()
	b := sampleERT()
	b.Entries["mac"]["random"] = 2.3
	if key(a) == key(b) {
		t.Error("changed nested map value did not change the key")
	}
	c := sampleERT()
	c.Name = "45nm"
	if key(a) == key(c) {
		t.Error("changed string field did not change the key")
	}
	type twoInts struct{ A, B int }
	if key(twoInts{1, 2}) == key(twoInts{2, 1}) {
		t.Error("swapped struct fields did not change the key")
	}
	if key([]int{1, 2}) == key([]int{1, 2, 0}) {
		t.Error("appended zero element did not change the key")
	}
	var nilp *int
	one := 1
	if key(nilp) == key(&one) {
		t.Error("nil pointer collides with pointer to value")
	}
}

func TestHasherPointerIdentityIrrelevant(t *testing.T) {
	// Two distinct pointers to equal values must hash identically: the
	// cache is content-addressed, not identity-addressed.
	a, b := sampleERT(), sampleERT()
	ha, hb := NewHasher(), NewHasher()
	ha.Value(&a)
	hb.Value(&b)
	if ha.Sum() != hb.Sum() {
		t.Error("equal values behind distinct pointers hash differently")
	}
}

func keyOf(s string) Key {
	h := NewHasher()
	h.String(s)
	return h.Sum()
}

func TestCacheGetPut(t *testing.T) {
	c := New(10, 1<<20)
	if _, ok := c.Get(keyOf("a")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(keyOf("a"), "va", 100)
	v, ok := c.Get(keyOf("a"))
	if !ok || v.(string) != "va" {
		t.Fatalf("got %v %v, want va true", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 100 {
		t.Errorf("stats %+v, want 1 hit, 1 miss, 1 entry, 100 bytes", st)
	}
	// Replacement adjusts accounted size.
	c.Put(keyOf("a"), "vb", 40)
	if st := c.Stats(); st.Bytes != 40 || st.Entries != 1 {
		t.Errorf("after replace: %+v, want 40 bytes, 1 entry", st)
	}
}

func TestCacheEntryLimitEvictsLRU(t *testing.T) {
	c := New(3, 1<<20)
	for i := 0; i < 3; i++ {
		c.Put(keyOf(fmt.Sprint(i)), i, 10)
	}
	c.Get(keyOf("0")) // 0 becomes most recently used; 1 is now oldest
	c.Put(keyOf("3"), 3, 10)
	if _, ok := c.Get(keyOf("1")); ok {
		t.Error("LRU entry 1 survived eviction")
	}
	for _, k := range []string{"0", "2", "3"} {
		if _, ok := c.Get(keyOf(k)); !ok {
			t.Errorf("entry %s evicted although recently used", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Errorf("stats %+v, want 1 eviction, 3 entries", st)
	}
}

func TestCacheByteLimitEvicts(t *testing.T) {
	c := New(100, 250)
	c.Put(keyOf("a"), "a", 100)
	c.Put(keyOf("b"), "b", 100)
	c.Put(keyOf("c"), "c", 100) // 300 > 250: "a" must go
	if _, ok := c.Get(keyOf("a")); ok {
		t.Error("oldest entry survived byte-limit eviction")
	}
	if st := c.Stats(); st.Bytes > 250 {
		t.Errorf("bytes %d over limit 250", st.Bytes)
	}
}

func TestCacheRejectsOversizedEntry(t *testing.T) {
	c := New(100, 200)
	c.Put(keyOf("big"), "big", 150) // > maxBytes/2: not cached
	if _, ok := c.Get(keyOf("big")); ok {
		t.Error("entry larger than half the byte budget was cached")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats %+v, want empty cache", st)
	}
}

func TestCachePurge(t *testing.T) {
	c := New(10, 1000)
	c.Put(keyOf("a"), 1, 10)
	c.Get(keyOf("a"))
	c.Purge()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("stats after purge: %+v, want all zero", st)
	}
	if _, ok := c.Get(keyOf("a")); ok {
		t.Error("entry survived purge")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := New(64, 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := keyOf(fmt.Sprint(i % 100))
				if v, ok := c.Get(k); ok {
					if v.(int) != i%100 {
						t.Errorf("key %d holds %v", i%100, v)
						return
					}
				} else {
					c.Put(k, i%100, 16)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStatsHitRate(t *testing.T) {
	if hr := (Stats{}).HitRate(); hr != 0 {
		t.Errorf("empty hit rate %v, want 0", hr)
	}
	if hr := (Stats{Hits: 3, Misses: 1}).HitRate(); hr != 0.75 {
		t.Errorf("hit rate %v, want 0.75", hr)
	}
}

// TestSchemaVersionChangesEveryKey proves the version stamp reaches every
// derived key: the same inputs hashed under a bumped schema version produce
// a different key for each of the Hasher's input kinds, so on-disk entries
// from an older binary invalidate cleanly on format changes.
func TestSchemaVersionChangesEveryKey(t *testing.T) {
	mixes := map[string]func(h *Hasher){
		"string": func(h *Hasher) { h.String("layer") },
		"int":    func(h *Hasher) { h.Int(-7) },
		"uint":   func(h *Hasher) { h.Uint(7) },
		"bool":   func(h *Hasher) { h.Bool(true) },
		"float":  func(h *Hasher) { h.Float(2.5) },
		"bytes":  func(h *Hasher) { h.Bytes([]byte{1, 2, 3}) },
		"value":  func(h *Hasher) { h.Value(sampleERT()) },
		"empty":  func(h *Hasher) {},
	}
	for name, mix := range mixes {
		cur, bumped := newHasher(SchemaVersion), newHasher(SchemaVersion+1)
		mix(cur)
		mix(bumped)
		if cur.Sum() == bumped.Sum() {
			t.Errorf("%s: key unchanged by schema version bump", name)
		}
	}
	// And NewHasher really is the current schema version.
	a, b := NewHasher(), newHasher(SchemaVersion)
	a.String("x")
	b.String("x")
	if a.Sum() != b.Sum() {
		t.Error("NewHasher does not hash under SchemaVersion")
	}
}

// memTier is an in-memory Tier for tests, with optional call counters.
type memTier struct {
	mu      sync.Mutex
	m       map[Key][]byte
	gets    int
	puts    int
	putKeys []Key
}

func newMemTier() *memTier { return &memTier{m: make(map[Key][]byte)} }

func (t *memTier) GetBlob(k Key) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gets++
	b, ok := t.m[k]
	return b, ok
}

func (t *memTier) PutBlob(k Key, payload []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.puts++
	t.putKeys = append(t.putKeys, k)
	if _, ok := t.m[k]; !ok {
		t.m[k] = append([]byte(nil), payload...)
	}
}

// stringCodec persists string values as raw bytes and rejects all else.
type stringCodec struct{}

func (stringCodec) Encode(v any) ([]byte, bool) {
	s, ok := v.(string)
	if !ok {
		return nil, false
	}
	return []byte(s), true
}

func (stringCodec) Decode(payload []byte) (any, int64, bool) {
	return string(payload), int64(len(payload)), true
}

func TestTierWriteThroughAndReadBack(t *testing.T) {
	tier := newMemTier()
	c := New(16, 1<<20)
	c.SetTier(tier, stringCodec{})
	k := keyOf("a")
	c.Put(k, "hello", 5)
	if tier.puts != 1 {
		t.Fatalf("tier puts = %d, want 1 write-through", tier.puts)
	}

	// A fresh cache over the same tier answers from disk and promotes.
	c2 := New(16, 1<<20)
	c2.SetTier(tier, stringCodec{})
	v, ok := c2.Get(k)
	if !ok || v.(string) != "hello" {
		t.Fatalf("tier-backed Get = %v, %v; want hello", v, ok)
	}
	st := c2.Stats()
	if st.StoreHits != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats after tier hit: %+v, want 1 store hit counted as hit", st)
	}
	// The promoted entry now lives in memory: no second tier read.
	gets := tier.gets
	if _, ok := c2.Get(k); !ok {
		t.Fatal("promoted entry missing from memory")
	}
	if tier.gets != gets {
		t.Error("memory hit consulted the tier")
	}
}

func TestTierMissCountsStoreMiss(t *testing.T) {
	tier := newMemTier()
	c := New(16, 1<<20)
	c.SetTier(tier, stringCodec{})
	if _, ok := c.Get(keyOf("absent")); ok {
		t.Fatal("hit on empty cache")
	}
	st := c.Stats()
	if st.StoreMisses != 1 || st.Misses != 1 || st.StoreHits != 0 {
		t.Errorf("stats after full miss: %+v, want 1 store miss + 1 miss", st)
	}
}

func TestTierUnencodableValueStaysMemoryOnly(t *testing.T) {
	tier := newMemTier()
	c := New(16, 1<<20)
	c.SetTier(tier, stringCodec{})
	c.Put(keyOf("n"), 42, 8) // int: codec rejects
	if tier.puts != 0 || len(tier.m) != 0 {
		t.Errorf("tier holds %d entries after unencodable put, want 0", len(tier.m))
	}
	if v, ok := c.Get(keyOf("n")); !ok || v.(int) != 42 {
		t.Errorf("memory-only value lost: %v, %v", v, ok)
	}
}

func TestTierOversizedValueStillPersisted(t *testing.T) {
	tier := newMemTier()
	c := New(16, 64) // tiny byte budget: admission cap is 32
	c.SetTier(tier, stringCodec{})
	big := string(make([]byte, 100))
	k := keyOf("big")
	c.Put(k, big, int64(len(big)))
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("oversized entry admitted to memory: %+v", st)
	}
	if _, ok := tier.m[k]; !ok {
		t.Error("oversized entry not written through to the tier")
	}
}

func TestTierSurvivesPurge(t *testing.T) {
	tier := newMemTier()
	c := New(16, 1<<20)
	c.SetTier(tier, stringCodec{})
	k := keyOf("p")
	c.Put(k, "kept", 4)
	c.Purge()
	v, ok := c.Get(k)
	if !ok || v.(string) != "kept" {
		t.Fatalf("purged cache lost tier entry: %v, %v", v, ok)
	}
	if st := c.Stats(); st.StoreHits != 1 {
		t.Errorf("stats after post-purge tier hit: %+v", st)
	}
}

// streamKey is the original Hasher kept as an oracle: it fed every tag,
// varint and name to SHA-256 as it went and read struct field names from
// reflect on every visit. Value must derive the same keys.
func streamKey(v any) Key {
	d := sha256.New()
	varint := func(u uint64) { d.Write(binary.AppendUvarint(nil, u)) }
	str := func(s string) { varint(uint64(len(s))); d.Write([]byte(s)) }
	str("scalesim/schema")
	varint(SchemaVersion)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		tag := func(t byte) { d.Write([]byte{t}) }
		if !v.IsValid() {
			tag(tagNil)
			return
		}
		switch v.Kind() {
		case reflect.Bool:
			tag(tagBool)
			if v.Bool() {
				varint(1)
			} else {
				varint(0)
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			tag(tagInt)
			varint(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			tag(tagUint)
			varint(v.Uint())
		case reflect.Float32, reflect.Float64:
			tag(tagFloat)
			varint(math.Float64bits(v.Float()))
		case reflect.String:
			tag(tagString)
			str(v.String())
		case reflect.Slice, reflect.Array:
			if v.Kind() == reflect.Slice && v.IsNil() {
				tag(tagNil)
				return
			}
			if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8 {
				tag(tagBytes)
				varint(uint64(v.Len()))
				d.Write(v.Bytes())
				return
			}
			tag(tagSlice)
			varint(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			if v.IsNil() {
				tag(tagNil)
				return
			}
			tag(tagMap)
			varint(uint64(v.Len()))
			keys := v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return mapKeyLess(keys[i], keys[j]) })
			for _, k := range keys {
				walk(k)
				walk(v.MapIndex(k))
			}
		case reflect.Struct:
			tag(tagStruct)
			varint(uint64(v.NumField()))
			for i := 0; i < v.NumField(); i++ {
				str(v.Type().Field(i).Name)
				walk(v.Field(i))
			}
		case reflect.Ptr, reflect.Interface:
			if v.IsNil() {
				tag(tagNil)
				return
			}
			tag(tagPtr)
			walk(v.Elem())
		}
	}
	walk(reflect.ValueOf(v))
	var k Key
	d.Sum(k[:0])
	return k
}

// TestValueMatchesStreamingOracle: buffering the encoding and caching
// field names per type must not change a single key, over every kind
// Value accepts and over seeded random values of a nested struct.
func TestValueMatchesStreamingOracle(t *testing.T) {
	type inner struct {
		F  float64
		B  []byte
		P  *int
		Ok bool
	}
	type outer struct {
		Name  string
		In    inner
		List  []inner
		Arr   [3]int8
		M     map[string]map[string]float64
		Any   any
		U     uint16
		Ptr   *inner
		Empty struct{}
	}
	one := -1
	fixed := []any{
		nil, true, -7, uint8(3), 2.5, float32(1.5), "s", []byte{1, 2}, []byte(nil), []int(nil),
		map[int]string{2: "b", 1: "a"}, sampleERT(), &one, (*int)(nil),
		outer{Name: "x", List: []inner{{F: 1}, {P: &one}}, Any: "iface", Ptr: &inner{Ok: true}},
	}
	for i, v := range fixed {
		h := NewHasher()
		h.Value(v)
		if got, want := h.Sum(), streamKey(v); got != want {
			t.Errorf("fixed value %d (%T): key %x, oracle %x", i, v, got, want)
		}
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 400; i++ {
		v := outer{
			Name: fmt.Sprint(rng.Uint64()),
			In:   inner{F: rng.NormFloat64(), B: make([]byte, rng.IntN(300)), Ok: rng.IntN(2) == 0},
			Arr:  [3]int8{int8(rng.Int()), int8(rng.Int()), int8(rng.Int())},
			U:    uint16(rng.Uint32()),
			M:    map[string]map[string]float64{},
		}
		for j := rng.IntN(5); j > 0; j-- {
			v.List = append(v.List, inner{F: rng.Float64(), P: &one})
			v.M[fmt.Sprint(j)] = map[string]float64{"r": rng.Float64(), "w": rng.Float64()}
		}
		if rng.IntN(2) == 0 {
			v.Any, v.Ptr = rng.Int64(), &v.In
		}
		h := NewHasher()
		h.Value(v)
		if got, want := h.Sum(), streamKey(v); got != want {
			t.Fatalf("random value %d: key %x, oracle %x", i, got, want)
		}
		pre := NewHasher()
		pre.Encoded(Encode(v))
		if pre.Sum() != h.Sum() {
			t.Fatalf("random value %d: Encoded(Encode(v)) differs from Value(v)", i)
		}
	}
}
