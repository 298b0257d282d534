// Package simcache is the cross-run simulation cache shared by Run and
// Sweep: a content-addressed, bounded LRU mapping fingerprints of
// simulation inputs to their results.
//
// The package has two halves:
//
//   - Hasher derives content-addressed keys. Its Value method encodes any
//     acyclic Go value (structs, maps, slices, pointers, primitives)
//     deterministically — struct fields in declaration order, map entries
//     in sorted key order — so that equal inputs always produce equal
//     keys, independent of map iteration order or process. The encoding
//     is appended to one buffer and hashed once by Sum; struct field
//     names are encoded once per type, not once per value.
//   - Cache is a thread-safe LRU bounded by both entry count and total
//     byte size, with hit/miss/eviction statistics.
//
// The cache stores opaque values; callers own deep-copy discipline (a
// cached value must never be mutated after Put, and values returned by Get
// must be copied before mutation). The scalesim package wraps this with
// the copy-in/copy-out layer for LayerResult.
package simcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
)

// Key is a content-addressed cache key: a SHA-256 digest of the
// fingerprinted simulation inputs.
type Key [sha256.Size]byte

// SchemaVersion is the cache-format epoch, mixed into every Hasher key.
// Bump it whenever the meaning of a cached value changes — a new field in
// a cached result, a fixed simulation bug, a codec change — and every key
// derived by the new binary diverges from the old ones, so persisted
// entries written by older binaries (see internal/diskstore) become
// unreachable instead of being decoded into the wrong shape.
//
// v2: simulation fidelity (scalesim.Fidelity) joined the layer
// fingerprint — entries persisted under v1 predate the tier axis and
// cannot be told apart by tier, so they all retire.
const SchemaVersion = 2

// Hasher accumulates simulation inputs into a Key. It appends their
// encoding to a buffer and hashes the buffer once, in Sum: SHA-256 of one
// byte stream does not depend on how the writes were chunked, so keys are
// the same as if every input were fed to the digest as it arrived. The
// zero value is not usable; call NewHasher.
type Hasher struct {
	buf   []byte
	small [256]byte // buf's first backing array: a layer key fits in it
}

// NewHasher returns a Hasher seeded with SchemaVersion.
func NewHasher() *Hasher { return newHasher(SchemaVersion) }

// newHasher seeds a Hasher with an explicit schema version; tests use it to
// prove a version bump changes every derived key.
func newHasher(version uint64) *Hasher {
	h := &Hasher{}
	h.buf = h.small[:0]
	h.String("scalesim/schema")
	h.Uint(version)
	return h
}

// Sum hashes the accumulated encoding into a Key. The Hasher must not be
// reused afterwards.
func (h *Hasher) Sum() Key { return sha256.Sum256(h.buf) }

// Bytes mixes a length-prefixed byte slice into the key.
func (h *Hasher) Bytes(b []byte) {
	h.varint(uint64(len(b)))
	h.buf = append(h.buf, b...)
}

// String mixes a length-prefixed string into the key.
func (h *Hasher) String(s string) {
	h.varint(uint64(len(s)))
	h.buf = append(h.buf, s...)
}

// Int mixes a signed integer into the key.
func (h *Hasher) Int(v int64) { h.varint(uint64(v)) }

// Uint mixes an unsigned integer into the key.
func (h *Hasher) Uint(v uint64) { h.varint(v) }

// Bool mixes a boolean into the key.
func (h *Hasher) Bool(v bool) {
	if v {
		h.varint(1)
	} else {
		h.varint(0)
	}
}

// Float mixes a float64 into the key by its IEEE-754 bit pattern.
func (h *Hasher) Float(v float64) { h.varint(math.Float64bits(v)) }

func (h *Hasher) varint(v uint64) { h.buf = binary.AppendUvarint(h.buf, v) }

// kind tags prefix every encoded value so that values of different shapes
// can never collide (e.g. the string "1" vs the integer 1).
const (
	tagBool byte = iota + 1
	tagInt
	tagUint
	tagFloat
	tagString
	tagBytes
	tagSlice
	tagMap
	tagStruct
	tagNil
	tagPtr
)

func (h *Hasher) tag(t byte) { h.buf = append(h.buf, t) }

// Value mixes an arbitrary acyclic Go value into the key using a canonical
// deterministic encoding: struct fields in declaration order (prefixed with
// their names), map entries sorted by key, pointers dereferenced with an
// explicit nil marker. Channels, functions and unsafe pointers are not
// supported and panic; cyclic values hang. Interface-typed fields must hold
// one of the supported kinds.
func (h *Hasher) Value(v any) { h.value(reflect.ValueOf(v)) }

// Encode returns the bytes Value(v) mixes into a key, for a value that
// enters many keys unchanged: h.Encoded(Encode(v)) and h.Value(v) derive
// the same key.
func Encode(v any) []byte {
	var h Hasher
	h.value(reflect.ValueOf(v))
	return h.buf
}

// Encoded mixes an encoding returned by Encode into the key.
func (h *Hasher) Encoded(enc []byte) { h.buf = append(h.buf, enc...) }

func (h *Hasher) value(v reflect.Value) {
	if !v.IsValid() {
		h.tag(tagNil)
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		h.tag(tagBool)
		h.Bool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.tag(tagInt)
		h.Int(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		h.tag(tagUint)
		h.Uint(v.Uint())
	case reflect.Float32, reflect.Float64:
		h.tag(tagFloat)
		h.Float(v.Float())
	case reflect.String:
		h.tag(tagString)
		h.String(v.String())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			h.tag(tagNil)
			return
		}
		if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8 {
			h.tag(tagBytes)
			h.Bytes(v.Bytes())
			return
		}
		h.tag(tagSlice)
		h.varint(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			h.value(v.Index(i))
		}
	case reflect.Map:
		if v.IsNil() {
			h.tag(tagNil)
			return
		}
		h.tag(tagMap)
		h.varint(uint64(v.Len()))
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return mapKeyLess(keys[i], keys[j]) })
		for _, k := range keys {
			h.value(k)
			h.value(v.MapIndex(k))
		}
	case reflect.Struct:
		h.tag(tagStruct)
		names := fieldNames(v.Type())
		h.varint(uint64(len(names)))
		for i, name := range names {
			h.buf = append(h.buf, name...)
			h.value(v.Field(i))
		}
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			h.tag(tagNil)
			return
		}
		h.tag(tagPtr)
		h.value(v.Elem())
	default:
		panic(fmt.Sprintf("simcache: cannot hash value of kind %v", v.Kind()))
	}
}

// structNames caches fieldNames per struct type.
var structNames sync.Map // reflect.Type → [][]byte

// fieldNames returns t's field names each encoded as String encodes it, so
// Value appends a name instead of re-encoding it on every struct visit.
func fieldNames(t reflect.Type) [][]byte {
	if names, ok := structNames.Load(t); ok {
		return names.([][]byte)
	}
	names := make([][]byte, t.NumField())
	for i := range names {
		name := t.Field(i).Name
		names[i] = append(binary.AppendUvarint(nil, uint64(len(name))), name...)
	}
	structNames.Store(t, names)
	return names
}

// mapKeyLess orders map keys of any comparable primitive kind; mixed-kind
// keys (possible only through interface keys) order by kind first.
func mapKeyLess(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return a.Kind() < b.Kind()
	}
	switch a.Kind() {
	case reflect.Bool:
		return !a.Bool() && b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() < b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() < b.Uint()
	case reflect.Float32, reflect.Float64:
		return a.Float() < b.Float()
	case reflect.String:
		return a.String() < b.String()
	default:
		// Fall back to the formatted representation; struct keys are rare
		// and this stays deterministic.
		return fmt.Sprint(a.Interface()) < fmt.Sprint(b.Interface())
	}
}

// Stats is a point-in-time snapshot of cache effectiveness and occupancy.
type Stats struct {
	// Hits and Misses count Get calls since construction (or Purge).
	Hits, Misses int64
	// Evictions counts entries dropped to make room.
	Evictions int64
	// Entries and Bytes describe current occupancy.
	Entries int
	Bytes   int64
	// StoreHits and StoreMisses count second-tier lookups: a StoreHit is a
	// memory miss answered from the attached Tier (and counted in Hits as
	// well); a StoreMiss fell through to a real computation. Both stay zero
	// without a Tier.
	StoreHits, StoreMisses int64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Default capacity bounds used when New is given non-positive limits.
const (
	DefaultMaxEntries = 4096
	DefaultMaxBytes   = 256 << 20 // 256 MiB
)

// Tier is a second, typically persistent, storage layer behind the
// in-memory LRU (see internal/diskstore). Lookups consult it on a memory
// miss; Put writes through to it. Implementations must be safe for
// concurrent use and must treat both calls as best-effort: a Tier that
// fails internally reports a miss / drops the write rather than erroring.
type Tier interface {
	// GetBlob returns the payload stored under k, if any.
	GetBlob(k Key) ([]byte, bool)
	// PutBlob persists a payload under k. Content-addressing makes
	// re-putting an existing key a no-op.
	PutBlob(k Key, payload []byte)
}

// Codec translates cached values to and from Tier payloads. Encode returns
// ok=false for values that should stay memory-only (unknown or unexported
// types); Decode returns the value plus its accounted in-memory size.
type Codec interface {
	Encode(v any) (payload []byte, ok bool)
	Decode(payload []byte) (v any, size int64, ok bool)
}

// tierCodec pairs an attached Tier with its Codec. Held behind an atomic
// pointer so a tier can be attached or detached while lookups are in
// flight on other goroutines.
type tierCodec struct {
	t Tier
	c Codec
}

// SetTier attaches a second storage tier and its codec (nil t detaches).
// Lookups then go memory → tier → miss, and every encodable Put writes
// through. Attachment is atomic with respect to concurrent lookups, but
// in-flight operations that already loaded the previous tier finish
// against it.
func (c *Cache) SetTier(t Tier, codec Codec) {
	if t == nil {
		c.tier.Store(nil)
		return
	}
	c.tier.Store(&tierCodec{t: t, c: codec})
}

// Cache is a thread-safe LRU keyed by content-addressed Keys and bounded
// by both entry count and accounted byte size.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List // front = most recently used
	items      map[Key]*list.Element
	bytes      int64
	hits       int64
	misses     int64
	evictions  int64
	storeHits  int64
	storeMiss  int64

	// tier is the optional second storage layer with its codec (SetTier).
	tier atomic.Pointer[tierCodec]
}

type entry struct {
	key  Key
	val  any
	size int64
}

// New returns an empty cache bounded to at most maxEntries entries and
// maxBytes accounted bytes. Non-positive limits select DefaultMaxEntries /
// DefaultMaxBytes.
func New(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[Key]*list.Element),
	}
}

// Get returns the value stored under k and marks it most recently used.
// The returned value is the cached instance itself: callers must copy it
// before any mutation. A memory miss consults the attached Tier, if any,
// promoting a decoded disk entry into memory before returning it.
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		v := el.Value.(*entry).val
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()
	v, ok := c.tierLookup(k)
	c.mu.Lock()
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return v, ok
}

// tierLookup consults the second tier on a memory miss: a decodable
// payload is promoted into memory (without re-writing through) and
// returned. Counts one StoreHit or StoreMiss per call.
func (c *Cache) tierLookup(k Key) (any, bool) {
	tc := c.tier.Load()
	if tc == nil {
		return nil, false
	}
	payload, ok := tc.t.GetBlob(k)
	if ok {
		if v, size, ok := tc.c.Decode(payload); ok {
			c.store(k, v, size)
			c.mu.Lock()
			c.storeHits++
			c.mu.Unlock()
			return v, true
		}
	}
	c.mu.Lock()
	c.storeMiss++
	c.mu.Unlock()
	return nil, false
}

// Put stores v under k with the given accounted size, evicting
// least-recently-used entries until both bounds hold. Values larger than
// half the byte budget are not cached in memory (they would evict
// everything else for a single entry). Storing under an existing key
// replaces the value. With a Tier attached, every encodable value writes
// through — including values too large for the memory bound, which the
// tier's own capacity governs.
func (c *Cache) Put(k Key, v any, size int64) {
	c.store(k, v, size)
	if tc := c.tier.Load(); tc != nil {
		if payload, ok := tc.c.Encode(v); ok {
			tc.t.PutBlob(k, payload)
		}
	}
}

// store inserts into the in-memory LRU only.
func (c *Cache) store(k Key, v any, size int64) {
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.maxBytes/2 {
		return
	}
	if el, ok := c.items[k]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.val, e.size = v, size
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&entry{key: k, val: v, size: size})
		c.items[k] = el
		c.bytes += size
	}
	for (c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes) && c.ll.Len() > 1 {
		c.evictOldest()
	}
}

// evictOldest drops the least recently used entry. Caller holds mu.
func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
	c.evictions++
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Entries:     c.ll.Len(),
		Bytes:       c.bytes,
		StoreHits:   c.storeHits,
		StoreMisses: c.storeMiss,
	}
}

// Purge empties the in-memory cache and resets all statistics. An attached
// Tier keeps its entries: purged keys remain answerable from disk.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[Key]*list.Element)
	c.bytes, c.hits, c.misses, c.evictions = 0, 0, 0, 0
	c.storeHits, c.storeMiss = 0, 0
}
