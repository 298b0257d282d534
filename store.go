package scalesim

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"log/slog"
	"math"
	"path/filepath"
	"sync"

	"scalesim/internal/diskstore"
	"scalesim/internal/simcache"
)

// StoreStats is a point-in-time snapshot of an attached result store: log
// occupancy, lookup effectiveness since the store was opened, what the
// last open recovered, and garbage-collection activity.
type StoreStats struct {
	// Entries and LogBytes describe current occupancy; MaxBytes is the
	// configured capacity.
	Entries  int
	LogBytes int64
	MaxBytes int64
	// Hits/Misses/Puts count lookups and writes since the store was
	// opened; PutBytes is payload bytes appended.
	Hits, Misses, Puts int64
	PutBytes           int64
	// Recovered and Skipped describe the last open: entries loaded vs.
	// damaged entries dropped. TruncatedBytes is the torn tail cut off.
	Recovered, Skipped int
	TruncatedBytes     int64
	// GCRuns and GCDropped count compactions and the entries they dropped.
	GCRuns, GCDropped int64
	// SnapshotUpTo is the log prefix (bytes) the newest index snapshot
	// covers; SnapshotUnix is when it was written (Unix seconds).
	SnapshotUpTo int64
	SnapshotUnix int64
	// IOErrors counts the store's internal read/write failures since open;
	// the degradation ladder (StoreDegraded) trips on consecutive failures.
	IOErrors int64
}

// AttachStore opens (creating if needed) a persistent result store in dir
// and attaches it as the cache's second tier: memory miss → disk lookup →
// simulate + write-through. Keys are the same content-addressed
// fingerprints the in-memory cache uses, so results persisted by one
// process warm-start any later process pointed at the same directory.
//
// maxBytes bounds the on-disk log (non-positive selects the 1 GiB
// default); exceeding it compacts away the oldest entries. A store
// directory is owned by one process at a time — AttachStore fails if
// another live process holds it. Attaching the directory already attached
// is a no-op; attaching a different one is an error (detach with
// CloseStore first).
func (c *Cache) AttachStore(dir string, maxBytes int64) error {
	return c.AttachStoreFS(dir, maxBytes, nil)
}

// AttachStoreFS is AttachStore through an explicit diskstore filesystem —
// the seam internal/faultinject substitutes to exercise the store's
// recovery and degradation paths deterministically. A nil fs selects the
// real OS.
func (c *Cache) AttachStoreFS(dir string, maxBytes int64, fs diskstore.FS) error {
	dir = filepath.Clean(dir)
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	if c.store != nil {
		if c.storeDir == dir {
			return nil
		}
		return fmt.Errorf("scalesim: cache already has store %q attached", c.storeDir)
	}
	s, err := diskstore.Open(dir, diskstore.Options{MaxBytes: maxBytes, FS: fs})
	if err != nil {
		return err
	}
	c.store = s
	c.storeDir = dir
	c.storeDegraded.Store(false)
	c.c.SetTier(&storeTier{s: s, c: c}, storeCodec{})
	return nil
}

// StoreStats snapshots the attached store's counters; ok is false when no
// store is attached.
func (c *Cache) StoreStats() (st StoreStats, ok bool) {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	if c.store == nil {
		return StoreStats{}, false
	}
	return StoreStats(c.store.Stats()), true
}

// CloseStore detaches the store (lookups revert to memory-only), snapshots
// its index and closes it, releasing the directory for other processes. A
// no-op without a store.
func (c *Cache) CloseStore() error {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	if c.store == nil {
		return nil
	}
	c.c.SetTier(nil, nil)
	err := c.store.Close()
	c.store, c.storeDir = nil, ""
	c.storeDegraded.Store(false)
	return err
}

// StoreDegraded reports whether the degradation ladder has detached the
// attached store: repeated I/O errors mid-serve demoted the cache to
// memory-only operation (the scalesim_store_degraded gauge).
func (c *Cache) StoreDegraded() bool { return c.storeDegraded.Load() }

// degradeStore detaches a dying store mid-serve: lookups and writes revert
// to memory-only instead of paying for (and silently dropping) every tier
// operation against a failing disk. The store handle stays open so stats
// remain readable and CloseStore can still salvage a snapshot.
func (c *Cache) degradeStore(s *diskstore.Store) {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	if c.store != s || c.storeDegraded.Load() {
		return // already detached or replaced
	}
	c.c.SetTier(nil, nil)
	c.storeDegraded.Store(true)
	slog.Warn("scalesim: result store degraded: detaching after repeated I/O errors, continuing memory-only",
		"dir", c.storeDir, "io_errors", s.IOErrors())
}

// storeFailThreshold is the degradation ladder's trip point: this many
// consecutive tier operations hitting internal store I/O errors mean the
// disk is dying, not hiccuping, and the store detaches itself.
const storeFailThreshold = 3

// storeTier adapts diskstore.Store to the simcache.Tier contract
// (best-effort: write errors are dropped, the store's own stats record
// lookup outcomes). It also runs the degradation ladder: each operation
// checks whether the store accrued new I/O errors, and a run of
// storeFailThreshold consecutive failing operations detaches the tier.
type storeTier struct {
	s *diskstore.Store
	c *Cache

	mu     sync.Mutex
	lastIO int64 // store IOErrors watermark after the previous operation
	fails  int   // consecutive operations that accrued I/O errors
}

func (t *storeTier) GetBlob(k simcache.Key) ([]byte, bool) {
	v, ok := t.s.Get(k)
	t.observe()
	return v, ok
}

func (t *storeTier) PutBlob(k simcache.Key, payload []byte) {
	_ = t.s.Put(k, payload)
	t.observe()
}

// observe advances the degradation ladder after a tier operation. Only
// internal I/O errors count — a clean miss or a duplicate put is healthy —
// and any clean operation resets the run, so the ladder trips on a dying
// disk, not on sporadic bit rot.
func (t *storeTier) observe() {
	io := t.s.IOErrors()
	t.mu.Lock()
	failed := io > t.lastIO
	t.lastIO = io
	if !failed {
		t.fails = 0
		t.mu.Unlock()
		return
	}
	t.fails++
	trip := t.fails >= storeFailThreshold
	t.mu.Unlock()
	if trip {
		t.c.degradeStore(t.s)
	}
}

// Payload kind tags. The simcache.SchemaVersion mixed into every key —
// not these tags — is what invalidates old payloads on format changes;
// the tags only keep the value kinds apart within one schema epoch.
const (
	codecLayerResult byte = 1 // gob-encoded *LayerResult
	codecFloat64     byte = 2 // 8 bytes, IEEE-754 bits little-endian
)

// storeCodec translates the two cache value kinds — gob-encoded layer
// results and the layout memo's float64 slowdown factors — to kind-tagged
// payloads. Any other value returns ok=false and stays memory-only; a
// payload with an unknown tag decodes as a miss.
type storeCodec struct{}

func (storeCodec) Encode(v any) ([]byte, bool) {
	switch x := v.(type) {
	case *LayerResult:
		var buf bytes.Buffer
		buf.WriteByte(codecLayerResult)
		if err := gob.NewEncoder(&buf).Encode(x); err != nil {
			return nil, false
		}
		return buf.Bytes(), true
	case float64:
		p := make([]byte, 9)
		p[0] = codecFloat64
		binary.LittleEndian.PutUint64(p[1:], math.Float64bits(x))
		return p, true
	}
	return nil, false
}

func (storeCodec) Decode(payload []byte) (any, int64, bool) {
	if len(payload) == 0 {
		return nil, 0, false
	}
	body := payload[1:]
	switch payload[0] {
	case codecLayerResult:
		var lr LayerResult
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&lr); err != nil {
			return nil, 0, false
		}
		return &lr, layerResultSize(&lr), true
	case codecFloat64:
		if len(body) != 8 {
			return nil, 0, false
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(body)), 8, true
	}
	return nil, 0, false
}
