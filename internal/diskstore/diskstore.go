// Package diskstore is a crash-safe, content-addressed result store: a
// durable second tier behind internal/simcache's in-memory LRU, shareable
// across process restarts. One Store owns one directory holding an
// append-only log of checksummed, length-prefixed entries plus an atomic
// index snapshot that bounds replay cost at open.
//
// On-disk layout (all integers little-endian):
//
//	store.log    entry*
//	entry        header(48B) payload
//	header       magic(4B "sSl1") key(32B) payloadLen(4B)
//	             payloadCRC(4B crc32c) headerCRC(4B crc32c of bytes 0..43)
//	index.snap   magic(8B "sSnap1\n\x00") upTo(8B) count(8B)
//	             count*(key(32B) off(8B) len(4B)) crc(4B crc32c of all prior)
//	LOCK         flock'd while the store is open (unix)
//
// Recovery invariants, enforced every Open:
//
//   - A torn tail — the file ends mid-header or mid-payload, the shape a
//     crash during append leaves — is truncated at the start of the torn
//     entry; everything before it is kept.
//   - An entry whose header is intact but whose payload fails its checksum
//     (bit rot, partial overwrite) is skipped; scanning continues at the
//     next entry, so one damaged entry never takes down its neighbors.
//   - A corrupt header ends the scan there: framing can no longer be
//     trusted, so the rest of the file is dropped like a torn tail.
//   - A snapshot that fails its checksum, or that covers more log than
//     exists, is ignored and the whole log is scanned instead. Snapshots
//     are written to a temp file and renamed, so a crash mid-save leaves
//     the previous snapshot in place.
//
// Entries are content-addressed: the key is a fingerprint of the inputs
// that produced the payload, so re-putting an existing key is a no-op and
// replay keeps whichever copy of a duplicated key it saw last. Capacity is
// bounded by Options.MaxBytes: when the log grows past it, a compaction
// keeps the newest entries within three quarters of the budget and drops
// the oldest.
//
// A Store directory is owned by exactly one process at a time (advisory
// flock). Concurrent use within that process is safe.
package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Key is a content-addressed entry key: a 32-byte fingerprint digest
// (assignable to and from simcache.Key).
type Key = [32]byte

const (
	logName  = "store.log"
	snapName = "index.snap"
	lockName = "LOCK"

	entryMagic  = "sSl1"
	snapMagic   = "sSnap1\n\x00"
	headerSize  = 4 + 32 + 4 + 4 + 4 // magic, key, len, payloadCRC, headerCRC
	snapEntSize = 32 + 8 + 4

	// DefaultMaxBytes bounds the log when Options.MaxBytes is zero.
	DefaultMaxBytes = 1 << 30 // 1 GiB

	// snapshotEvery bounds replay cost after a crash: a snapshot is saved
	// automatically after this many appended entries.
	snapshotEvery = 256
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// MaxBytes bounds the log size; exceeding it triggers compaction that
	// keeps the newest entries within 3/4 of the budget. Non-positive
	// selects DefaultMaxBytes.
	MaxBytes int64
	// ReadOnly opens the store for inspection (stats, verify): no lock
	// upgrade, no tail truncation, and Put/GC/SaveSnapshot fail.
	ReadOnly bool
	// FS is the filesystem the store operates through. Nil selects OSFS;
	// tests and the fault-injection harness substitute their own.
	FS FS
}

// Stats is a point-in-time snapshot of store contents and effectiveness.
type Stats struct {
	// Entries and LogBytes describe current occupancy; MaxBytes is the
	// configured capacity.
	Entries  int
	LogBytes int64
	MaxBytes int64
	// Hits/Misses/Puts count Get and Put calls since Open; PutBytes is
	// payload bytes appended.
	Hits, Misses, Puts int64
	PutBytes           int64
	// Recovered and Skipped describe the last Open: entries loaded
	// (snapshot + replay) vs. damaged entries dropped. TruncatedBytes is
	// the torn tail cut off, 0 for a clean log.
	Recovered, Skipped int
	TruncatedBytes     int64
	// GCRuns and GCDropped count compactions and the entries they dropped.
	GCRuns, GCDropped int64
	// SnapshotUpTo is the log prefix (bytes) the newest snapshot covers, 0
	// when none exists; SnapshotUnix is when it was written (Unix seconds).
	SnapshotUpTo int64
	SnapshotUnix int64
	// IOErrors counts internal read/write failures since Open — payload
	// reads that errored, appends and snapshots that failed. The degradation
	// ladder (see scalesim.Cache.AttachStore) watches this to decide when a
	// dying disk should be detached rather than retried forever.
	IOErrors int64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type indexEntry struct {
	off int64 // payload offset in the log
	len int32
}

// Store is the durable content-addressed store. Safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	dir      string
	fs       FS
	log      File
	lock     *os.File
	logSize  int64
	index    map[Key]indexEntry
	order    []Key // append order of live keys, oldest first (for GC)
	maxBytes int64
	readOnly bool
	closed   bool

	hits, misses, puts int64
	putBytes           int64
	recovered, skipped int
	truncated          int64
	gcRuns, gcDropped  int64
	snapUpTo           int64
	snapUnix           int64
	sinceSnap          int   // appends since the last snapshot
	ioErrors           int64 // internal read/write failures since Open
}

// Open opens (creating if needed) the store rooted at dir, recovering the
// index from the snapshot plus a replay of the uncovered log tail. Damaged
// entries are dropped, a torn tail is truncated (unless ReadOnly), and the
// counts are reported in Stats.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	fs := opts.FS
	if fs == nil {
		fs = OSFS
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	lock, err := acquireLock(filepath.Join(dir, lockName), opts.ReadOnly)
	if err != nil {
		return nil, err
	}
	flags, perm := os.O_RDWR|os.O_CREATE, os.FileMode(0o644)
	if opts.ReadOnly {
		flags = os.O_RDONLY | os.O_CREATE
	}
	logf, err := fs.OpenFile(filepath.Join(dir, logName), flags, perm)
	if err != nil {
		releaseLock(lock)
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{
		dir:      dir,
		fs:       fs,
		log:      logf,
		lock:     lock,
		index:    make(map[Key]indexEntry),
		maxBytes: opts.MaxBytes,
		readOnly: opts.ReadOnly,
	}
	if err := s.recover(); err != nil {
		logf.Close()
		releaseLock(lock)
		return nil, err
	}
	return s, nil
}

// recover loads the snapshot (if valid) and replays the log tail it does
// not cover, truncating torn tails and skipping damaged entries.
func (s *Store) recover() error {
	fi, err := s.log.Stat()
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	size := fi.Size()
	from := s.loadSnapshot(size)
	keepUpTo, err := s.replay(from, size)
	if err != nil {
		return err
	}
	if keepUpTo < size {
		s.truncated = size - keepUpTo
		if !s.readOnly {
			if err := s.log.Truncate(keepUpTo); err != nil {
				return fmt.Errorf("diskstore: truncating torn tail: %w", err)
			}
		}
	}
	s.logSize = keepUpTo
	return nil
}

// loadSnapshot seeds the index from index.snap and returns the log offset
// replay should start at (0 when the snapshot is absent or unusable).
func (s *Store) loadSnapshot(logSize int64) int64 {
	b, err := s.fs.ReadFile(filepath.Join(s.dir, snapName))
	if err != nil || len(b) < len(snapMagic)+8+8+4 || string(b[:len(snapMagic)]) != snapMagic {
		return 0
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return 0
	}
	upTo := int64(binary.LittleEndian.Uint64(b[len(snapMagic):]))
	count := int64(binary.LittleEndian.Uint64(b[len(snapMagic)+8:]))
	if upTo < 0 || upTo > logSize || count < 0 {
		// Covers log that no longer exists (external truncation): distrust.
		return 0
	}
	ents := b[len(snapMagic)+16 : len(b)-4]
	if int64(len(ents)) != count*snapEntSize {
		return 0
	}
	type ordered struct {
		k Key
		e indexEntry
	}
	all := make([]ordered, 0, count)
	for i := int64(0); i < count; i++ {
		rec := ents[i*snapEntSize:]
		var k Key
		copy(k[:], rec[:32])
		off := int64(binary.LittleEndian.Uint64(rec[32:]))
		l := int32(binary.LittleEndian.Uint32(rec[40:]))
		if off < headerSize || l < 0 || off+int64(l) > upTo {
			// One impossible record poisons the whole snapshot.
			s.index = make(map[Key]indexEntry)
			return 0
		}
		all = append(all, ordered{k, indexEntry{off: off, len: l}})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].e.off < all[j].e.off })
	for _, o := range all {
		s.setLive(o.k, o.e)
	}
	s.recovered += len(all)
	s.snapUpTo = upTo
	if fi, err := s.fs.Stat(filepath.Join(s.dir, snapName)); err == nil {
		s.snapUnix = fi.ModTime().Unix()
	}
	return upTo
}

// replay scans log entries in [from, size), indexing valid entries and
// skipping payload-corrupt ones. It returns the offset up to which the log
// is structurally sound; bytes past it (torn tail or corrupt framing) are
// the caller's to truncate.
func (s *Store) replay(from, size int64) (int64, error) {
	sound, damaged, err := scanEntries(s.log, from, size, func(r scanResult) {
		if r.valid {
			s.setLive(r.key, indexEntry{off: r.off, len: int32(len(r.payload))})
			s.recovered++
		}
	})
	if err != nil {
		s.ioErrors++
		return 0, fmt.Errorf("diskstore: replaying log: %w", err)
	}
	s.skipped += damaged
	return sound, nil
}

// setLive indexes k, keeping the append order list deduplicated.
func (s *Store) setLive(k Key, e indexEntry) {
	if _, dup := s.index[k]; !dup {
		s.order = append(s.order, k)
	}
	s.index[k] = e
}

// Get returns the payload stored under k. Read failures count as misses:
// the store is a cache tier, not a system of record. The entry's framing
// header is re-read and the payload checksum verified on every hit, so
// bit rot that crept in after the entry was indexed surfaces as a miss
// here instead of corrupt bytes reaching the caller.
func (s *Store) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[k]
	if !ok || s.closed {
		s.misses++
		return nil, false
	}
	buf := make([]byte, headerSize+int(e.len))
	if _, err := s.log.ReadAt(buf, e.off-headerSize); err != nil {
		s.ioErrors++
		s.misses++
		return nil, false
	}
	hk, plen, payloadCRC, ok := parseEntryHeader(buf[:headerSize])
	payload := buf[headerSize:]
	if !ok || hk != k || plen != int64(e.len) || crc32Sum(payload) != payloadCRC {
		s.ioErrors++
		s.misses++
		return nil, false
	}
	s.hits++
	return payload, true
}

// Put appends payload under k. Re-putting an existing key is a no-op
// (content-addressing guarantees equal payloads for equal keys). Exceeding
// the capacity bound triggers compaction; crossing the snapshot interval
// saves a snapshot.
func (s *Store) Put(k Key, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("diskstore: store is closed")
	}
	if s.readOnly {
		return errors.New("diskstore: store is read-only")
	}
	if _, dup := s.index[k]; dup {
		return nil
	}
	if int64(len(payload))+headerSize > s.maxBytes/2 {
		// One entry must never force out everything else.
		return fmt.Errorf("diskstore: payload of %d bytes exceeds half the %d-byte capacity", len(payload), s.maxBytes)
	}
	if err := s.appendLocked(k, payload); err != nil {
		return err
	}
	s.puts++
	s.putBytes += int64(len(payload))
	if s.logSize > s.maxBytes {
		if err := s.gcLocked(); err != nil {
			return err
		}
	} else if s.sinceSnap >= snapshotEvery {
		if err := s.saveSnapshotLocked(); err != nil {
			return err
		}
	}
	return nil
}

// appendLocked writes one framed entry at the log tail and indexes it. A
// short write leaves a torn tail the next Open truncates; the in-memory
// state only advances on full success.
func (s *Store) appendLocked(k Key, payload []byte) error {
	buf := frameEntry(k, payload)
	if _, err := s.log.WriteAt(buf, s.logSize); err != nil {
		s.ioErrors++
		return fmt.Errorf("diskstore: appending entry: %w", err)
	}
	s.setLive(k, indexEntry{off: s.logSize + headerSize, len: int32(len(payload))})
	s.logSize += int64(len(buf))
	s.sinceSnap++
	return nil
}

// GC compacts the log down to three quarters of the capacity bound,
// keeping the newest entries, and returns how many entries were dropped.
func (s *Store) GC() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("diskstore: store is closed")
	}
	if s.readOnly {
		return 0, errors.New("diskstore: store is read-only")
	}
	before := len(s.index)
	if err := s.gcLocked(); err != nil {
		return 0, err
	}
	return before - len(s.index), nil
}

// gcLocked compacts the log, keeping the newest entries within 3/4 of
// capacity. A full disk makes compaction itself fail — exactly when space
// is most needed — so on any write failure the target shrinks by half and
// the rewrite retries, down to an empty log if that is all that fits.
// Dropping cached entries is always acceptable; refusing to reclaim space
// is not.
func (s *Store) gcLocked() error {
	var lastErr error
	for target := s.maxBytes * 3 / 4; ; target /= 2 {
		err := s.compactTo(target)
		if err == nil {
			// The old snapshot points into the replaced log: rewrite it now.
			// Best-effort — on a full disk the log replay covers for it.
			if serr := s.saveSnapshotLocked(); serr != nil && lastErr == nil {
				return serr
			}
			return nil
		}
		s.ioErrors++
		lastErr = err
		if target == 0 {
			return lastErr
		}
	}
}

// compactTo rewrites the newest entries that fit within target bytes to a
// fresh log and atomically replaces the old one. The old log and index are
// untouched unless the swap fully succeeds.
func (s *Store) compactTo(target int64) error {
	// Walk newest → oldest, keeping entries while they fit.
	keep := make([]Key, 0, len(s.order))
	var kept int64
	for i := len(s.order) - 1; i >= 0; i-- {
		k := s.order[i]
		e := s.index[k]
		sz := int64(e.len) + headerSize
		if kept+sz > target {
			break
		}
		kept += sz
		keep = append(keep, k)
	}
	// Reverse back to append order.
	for i, j := 0, len(keep)-1; i < j; i, j = i+1, j-1 {
		keep[i], keep[j] = keep[j], keep[i]
	}

	tmpPath := filepath.Join(s.dir, logName+".tmp")
	tmp, err := s.fs.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: gc: %w", err)
	}
	defer s.fs.Remove(tmpPath) // no-op after the rename succeeds

	newIndex := make(map[Key]indexEntry, len(keep))
	var off int64
	for _, k := range keep {
		e := s.index[k]
		payload := make([]byte, e.len)
		if _, err := s.log.ReadAt(payload, e.off); err != nil {
			tmp.Close()
			return fmt.Errorf("diskstore: gc: reading entry: %w", err)
		}
		if _, err := tmp.WriteAt(frameEntry(k, payload), off); err != nil {
			tmp.Close()
			return fmt.Errorf("diskstore: gc: %w", err)
		}
		newIndex[k] = indexEntry{off: off + headerSize, len: e.len}
		off += headerSize + int64(e.len)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("diskstore: gc: %w", err)
	}
	if err := s.fs.Rename(tmpPath, filepath.Join(s.dir, logName)); err != nil {
		tmp.Close()
		return fmt.Errorf("diskstore: gc: %w", err)
	}
	s.log.Close()
	s.log = tmp
	dropped := int64(len(s.index) - len(newIndex))
	s.index = newIndex
	s.order = keep
	s.logSize = off
	s.gcRuns++
	s.gcDropped += dropped
	return nil
}

// SaveSnapshot atomically writes the in-memory index to index.snap so the
// next Open replays only the log appended afterwards.
func (s *Store) SaveSnapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("diskstore: store is closed")
	}
	if s.readOnly {
		return errors.New("diskstore: store is read-only")
	}
	return s.saveSnapshotLocked()
}

func (s *Store) saveSnapshotLocked() error {
	if err := s.log.Sync(); err != nil {
		s.ioErrors++
		return fmt.Errorf("diskstore: snapshot: %w", err)
	}
	b := make([]byte, 0, len(snapMagic)+16+len(s.index)*snapEntSize+4)
	b = append(b, snapMagic...)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.logSize))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s.index)))
	for _, k := range s.order {
		e := s.index[k]
		b = append(b, k[:]...)
		b = binary.LittleEndian.AppendUint64(b, uint64(e.off))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.len))
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))

	tmpPath := filepath.Join(s.dir, snapName+".tmp")
	if err := s.fs.WriteFile(tmpPath, b, 0o644); err != nil {
		s.ioErrors++
		return fmt.Errorf("diskstore: snapshot: %w", err)
	}
	if err := s.fs.Rename(tmpPath, filepath.Join(s.dir, snapName)); err != nil {
		s.fs.Remove(tmpPath)
		s.ioErrors++
		return fmt.Errorf("diskstore: snapshot: %w", err)
	}
	s.snapUpTo = s.logSize
	s.snapUnix = time.Now().Unix()
	s.sinceSnap = 0
	return nil
}

// VerifyResult reports a full re-checksum of the log.
type VerifyResult struct {
	// Valid entries passed both checksums; Corrupt entries failed the
	// payload checksum inside intact framing.
	Valid, Corrupt int
	// TornBytes is trailing log that is not parseable as entries (torn
	// tail or corrupt header), 0 for a structurally clean log.
	TornBytes int64
	// IndexedMissing counts indexed keys whose entry did not verify —
	// damage that affects live lookups, not just historical log bytes.
	IndexedMissing int
}

// Clean reports whether the store passed verification completely.
func (r VerifyResult) Clean() bool {
	return r.Corrupt == 0 && r.TornBytes == 0 && r.IndexedMissing == 0
}

// Verify re-checksums every entry in the log, independent of the index and
// snapshot, and cross-checks that every indexed key has a valid entry.
func (s *Store) Verify() (VerifyResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var res VerifyResult
	if s.closed {
		return res, errors.New("diskstore: store is closed")
	}
	fi, err := s.log.Stat()
	if err != nil {
		return res, fmt.Errorf("diskstore: %w", err)
	}
	size := fi.Size()
	valid := make(map[Key]bool)
	sound, _, err := scanEntries(s.log, 0, size, func(r scanResult) {
		if r.valid {
			res.Valid++
			valid[r.key] = true
		} else {
			res.Corrupt++
		}
	})
	if err != nil {
		s.ioErrors++
		return res, fmt.Errorf("diskstore: verifying log: %w", err)
	}
	res.TornBytes = size - sound
	for k := range s.index {
		if !valid[k] {
			res.IndexedMissing++
		}
	}
	return res, nil
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:        len(s.index),
		LogBytes:       s.logSize,
		MaxBytes:       s.maxBytes,
		Hits:           s.hits,
		Misses:         s.misses,
		Puts:           s.puts,
		PutBytes:       s.putBytes,
		Recovered:      s.recovered,
		Skipped:        s.skipped,
		TruncatedBytes: s.truncated,
		GCRuns:         s.gcRuns,
		GCDropped:      s.gcDropped,
		SnapshotUpTo:   s.snapUpTo,
		SnapshotUnix:   s.snapUnix,
		IOErrors:       s.ioErrors,
	}
}

// IOErrors returns the count of internal read/write failures since Open.
// Cheap enough to poll after every operation: the degradation ladder in
// the root package does exactly that.
func (s *Store) IOErrors() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ioErrors
}

// Close snapshots the index (when writable), syncs and closes the log, and
// releases the directory lock. The Store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var errs []error
	if !s.readOnly {
		if err := s.saveSnapshotLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.log.Close(); err != nil {
		errs = append(errs, err)
	}
	releaseLock(s.lock)
	s.closed = true
	return errors.Join(errs...)
}
