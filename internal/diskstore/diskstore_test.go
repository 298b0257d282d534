package diskstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testKey(s string) Key {
	var k Key
	copy(k[:], s)
	return k
}

// crash abandons the store the way SIGKILL would: no snapshot, no final
// sync, just dropped file handles. White-box by necessity — Close always
// snapshots, and a second Open needs the flock released.
func crash(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.Close()
	releaseLock(s.lock)
	s.closed = true
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, k Key, payload []byte) {
	t.Helper()
	if err := s.Put(k, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
}

func TestPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	k1, k2 := testKey("alpha"), testKey("beta")
	mustPut(t, s, k1, []byte("payload one"))
	mustPut(t, s, k2, []byte("payload two, a bit longer"))
	if got, ok := s.Get(k1); !ok || string(got) != "payload one" {
		t.Fatalf("Get(k1) = %q, %v", got, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	st := s2.Stats()
	if st.Entries != 2 || st.Recovered != 2 || st.Skipped != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("reopen stats = %+v, want 2 recovered clean", st)
	}
	if st.SnapshotUpTo == 0 {
		t.Fatalf("Close did not snapshot: %+v", st)
	}
	if got, ok := s2.Get(k2); !ok || string(got) != "payload two, a bit longer" {
		t.Fatalf("Get(k2) after reopen = %q, %v", got, ok)
	}
	if _, ok := s2.Get(testKey("absent")); ok {
		t.Fatal("Get(absent) hit")
	}
	if st2 := s2.Stats(); st2.Hits != 1 || st2.Misses != 1 {
		t.Fatalf("hit/miss = %d/%d, want 1/1", st2.Hits, st2.Misses)
	}
}

func TestReopenAfterCrashReplaysLog(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, testKey("a"), []byte("aa"))
	mustPut(t, s, testKey("b"), []byte("bb"))
	crash(t, s) // no snapshot ever written

	s2 := mustOpen(t, dir, Options{})
	st := s2.Stats()
	if st.Entries != 2 || st.Recovered != 2 || st.SnapshotUpTo != 0 {
		t.Fatalf("stats after crash-reopen = %+v", st)
	}
	if got, ok := s2.Get(testKey("b")); !ok || string(got) != "bb" {
		t.Fatalf("Get(b) = %q, %v", got, ok)
	}
}

// The crash-during-append shape: the file ends partway through the last
// entry. Recovery must truncate exactly the torn entry and keep the rest.
func TestTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, testKey("a"), []byte("first payload"))
	mustPut(t, s, testKey("b"), []byte("second payload"))
	mustPut(t, s, testKey("c"), []byte("third payload"))
	wholeSize := s.Stats().LogBytes
	if err := s.Close(); err != nil { // snapshot now covers all three
		t.Fatalf("Close: %v", err)
	}

	logPath := filepath.Join(dir, logName)
	tornSize := wholeSize - int64(len("third payload")) + 3 // mid-payload of entry c
	if err := os.Truncate(logPath, tornSize); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	// The snapshot claims coverage past EOF, so it must be distrusted and
	// the log replayed from scratch.
	s2 := mustOpen(t, dir, Options{})
	st := s2.Stats()
	if st.Entries != 2 || st.Recovered != 2 || st.Skipped != 1 {
		t.Fatalf("stats = %+v, want 2 recovered / 1 skipped", st)
	}
	if st.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v, want TruncatedBytes > 0", st)
	}
	for _, name := range []string{"a", "b"} {
		if _, ok := s2.Get(testKey(name)); !ok {
			t.Errorf("Get(%s) missed after torn-tail recovery", name)
		}
	}
	if _, ok := s2.Get(testKey("c")); ok {
		t.Error("torn entry c still readable")
	}
	if fi, err := os.Stat(logPath); err != nil || fi.Size() >= tornSize {
		t.Fatalf("log size = %d (err %v), want < %d (tail cut)", fi.Size(), err, tornSize)
	}
	// The store must stay appendable at the truncated tail.
	mustPut(t, s2, testKey("d"), []byte("fourth payload"))
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s3 := mustOpen(t, dir, Options{})
	if got, ok := s3.Get(testKey("d")); !ok || string(got) != "fourth payload" {
		t.Fatalf("Get(d) after re-append+reopen = %q, %v", got, ok)
	}
}

// A bit flip inside one payload must drop only that entry: neighbors on
// both sides survive, and the counts say one was skipped.
func TestBitFlippedEntrySkippedOnReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	payloads := map[string]string{"a": "first payload", "b": "second payload", "c": "third payload"}
	entryASize := int64(headerSize + len(payloads["a"]))
	for _, name := range []string{"a", "b", "c"} {
		mustPut(t, s, testKey(name), []byte(payloads[name]))
	}
	crash(t, s) // no snapshot: force a full replay

	logPath := filepath.Join(dir, logName)
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	raw[entryASize+headerSize] ^= 0x40 // first payload byte of entry b
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatalf("write log: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	st := s2.Stats()
	if st.Entries != 2 || st.Recovered != 2 || st.Skipped != 1 || st.TruncatedBytes != 0 {
		t.Fatalf("stats = %+v, want 2 recovered / 1 skipped / nothing truncated", st)
	}
	for _, name := range []string{"a", "c"} {
		if got, ok := s2.Get(testKey(name)); !ok || string(got) != payloads[name] {
			t.Errorf("Get(%s) = %q, %v after bit-flip recovery", name, got, ok)
		}
	}
	if _, ok := s2.Get(testKey("b")); ok {
		t.Error("bit-flipped entry b still readable")
	}

	// Verify sees the damaged bytes still in the log, but no indexed key
	// depends on them.
	res, err := s2.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Valid != 2 || res.Corrupt != 1 || res.TornBytes != 0 || res.IndexedMissing != 0 {
		t.Fatalf("Verify = %+v", res)
	}
	if res.Clean() {
		t.Fatal("Verify reported clean on a corrupt log")
	}
}

// A corrupt header means framing is lost: recovery keeps everything before
// it and truncates the rest, like a long torn tail.
func TestCorruptHeaderTruncatesRest(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, testKey("a"), []byte("first payload"))
	entryASize := int64(headerSize + len("first payload"))
	mustPut(t, s, testKey("b"), []byte("second payload"))
	crash(t, s)

	logPath := filepath.Join(dir, logName)
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	raw[entryASize+1] ^= 0xFF // inside entry b's magic
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatalf("write log: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	st := s2.Stats()
	if st.Entries != 1 || st.Recovered != 1 || st.Skipped != 1 || st.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v, want 1 recovered / 1 skipped / tail truncated", st)
	}
	if _, ok := s2.Get(testKey("a")); !ok {
		t.Error("Get(a) missed")
	}
}

func TestSnapshotBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, testKey("a"), []byte("aa"))
	if err := s.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	covered := s.Stats().SnapshotUpTo
	if covered != s.Stats().LogBytes {
		t.Fatalf("snapshot covers %d of %d log bytes", covered, s.Stats().LogBytes)
	}
	mustPut(t, s, testKey("b"), []byte("bb")) // appended after the snapshot
	crash(t, s)

	s2 := mustOpen(t, dir, Options{})
	st := s2.Stats()
	if st.Entries != 2 || st.Recovered != 2 {
		t.Fatalf("stats = %+v, want both entries (snapshot + replayed tail)", st)
	}
	if got, ok := s2.Get(testKey("b")); !ok || string(got) != "bb" {
		t.Fatalf("Get(b) = %q, %v", got, ok)
	}
}

func TestCorruptSnapshotFallsBackToFullReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, testKey("a"), []byte("aa"))
	mustPut(t, s, testKey("b"), []byte("bb"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snapPath := filepath.Join(dir, snapName)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	st := s2.Stats()
	if st.Entries != 2 || st.Recovered != 2 || st.SnapshotUpTo != 0 {
		t.Fatalf("stats = %+v, want full replay with snapshot ignored", st)
	}
}

// TestHugeSnapshotCountFallsBackToFullReplay opens a store whose snapshot
// is 28 well-formed bytes: the magic, upTo 0, an entry count of 2^62 and a
// valid CRC-32C, with no entries. 44 · 2^62 wraps to 0 in int64, so a
// length check by multiplication accepted it, and sizing the index by the
// count then panicked. The snapshot must be ignored like any bad one.
func TestHugeSnapshotCountFallsBackToFullReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, testKey("a"), []byte("aa"))
	mustPut(t, s, testKey("b"), []byte("bb"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap := binary.LittleEndian.AppendUint64([]byte(snapMagic), 0)
	snap = binary.LittleEndian.AppendUint64(snap, 1<<62)
	snap = binary.LittleEndian.AppendUint32(snap, crc32.Checksum(snap, crcTable))
	if err := os.WriteFile(filepath.Join(dir, snapName), snap, 0o644); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	st := s2.Stats()
	if st.Entries != 2 || st.Recovered != 2 || st.SnapshotUpTo != 0 {
		t.Fatalf("stats = %+v, want full replay with snapshot ignored", st)
	}
}

func TestDuplicatePutIsNoop(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	k := testKey("dup")
	mustPut(t, s, k, []byte("payload"))
	size := s.Stats().LogBytes
	mustPut(t, s, k, []byte("payload"))
	st := s.Stats()
	if st.LogBytes != size || st.Entries != 1 || st.Puts != 1 {
		t.Fatalf("stats after duplicate put = %+v", st)
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxBytes: 1 << 12})
	if err := s.Put(testKey("big"), make([]byte, 1<<11)); err == nil {
		t.Fatal("Put of payload > capacity/2 succeeded")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after rejected put", s.Len())
	}
}

func TestGCKeepsNewestWithinBudget(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 8 << 10
	s := mustOpen(t, dir, Options{MaxBytes: maxBytes})
	payload := bytes.Repeat([]byte("x"), 512)
	const n = 40 // ~40*(512+48) ≈ 22 KiB appended, nearly 3x capacity
	for i := 0; i < n; i++ {
		mustPut(t, s, testKey(fmt.Sprintf("key-%03d", i)), payload)
	}
	st := s.Stats()
	if st.LogBytes > maxBytes {
		t.Fatalf("LogBytes = %d > capacity %d after auto-GC", st.LogBytes, maxBytes)
	}
	if st.GCRuns == 0 || st.GCDropped == 0 {
		t.Fatalf("stats = %+v, want GC activity", st)
	}
	if _, ok := s.Get(testKey(fmt.Sprintf("key-%03d", n-1))); !ok {
		t.Error("newest entry evicted by GC")
	}
	if _, ok := s.Get(testKey("key-000")); ok {
		t.Error("oldest entry survived GC under 3x capacity pressure")
	}
	// GC rewrote the log: a reopen must see exactly the surviving set.
	entries := s.Len()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := mustOpen(t, dir, Options{MaxBytes: maxBytes})
	if s2.Len() != entries {
		t.Fatalf("reopen after GC: Len = %d, want %d", s2.Len(), entries)
	}
	if res, err := s2.Verify(); err != nil || !res.Clean() {
		t.Fatalf("Verify after GC = %+v, %v", res, err)
	}
}

func TestExplicitGC(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxBytes: 1 << 20})
	for i := 0; i < 10; i++ {
		mustPut(t, s, testKey(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte("y"), 128))
	}
	dropped, err := s.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if dropped != 0 { // everything fits comfortably in budget
		t.Fatalf("GC dropped %d entries under no pressure", dropped)
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d after GC", s.Len())
	}
}

func TestReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, testKey("a"), []byte("aa"))
	wholeSize := s.Stats().LogBytes
	mustPut(t, s, testKey("b"), []byte("bb"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Tear the tail so read-only recovery has something to NOT truncate.
	logPath := filepath.Join(dir, logName)
	if err := os.Truncate(logPath, wholeSize+headerSize/2); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	ro := mustOpen(t, dir, Options{ReadOnly: true})
	st := ro.Stats()
	if st.Entries != 1 || st.TruncatedBytes == 0 {
		t.Fatalf("read-only stats = %+v", st)
	}
	if got, ok := ro.Get(testKey("a")); !ok || string(got) != "aa" {
		t.Fatalf("Get(a) = %q, %v", got, ok)
	}
	if err := ro.Put(testKey("c"), []byte("cc")); err == nil {
		t.Fatal("Put succeeded on read-only store")
	}
	if err := ro.SaveSnapshot(); err == nil {
		t.Fatal("SaveSnapshot succeeded on read-only store")
	}
	if _, err := ro.GC(); err == nil {
		t.Fatal("GC succeeded on read-only store")
	}
	// The torn tail must still be on disk, untouched.
	if fi, err := os.Stat(logPath); err != nil || fi.Size() != wholeSize+headerSize/2 {
		t.Fatalf("read-only open modified the log: size %d, err %v", fi.Size(), err)
	}
	if err := ro.Close(); err != nil {
		t.Fatalf("Close read-only: %v", err)
	}

	// Inspection never creates a store: a missing directory, or a
	// directory without a store log, fails naming the path and stays as
	// it was.
	missing := filepath.Join(t.TempDir(), "no", "such", "store")
	empty := t.TempDir()
	for _, path := range []string{missing, empty} {
		if s, err := Open(path, Options{ReadOnly: true}); err == nil {
			s.Close()
			t.Errorf("read-only Open(%s) succeeded", path)
		} else if !strings.Contains(err.Error(), path) {
			t.Errorf("read-only Open(%s) error %q does not name the path", path, err)
		}
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("read-only Open created %s (stat err %v)", missing, err)
	}
	if entries, _ := os.ReadDir(empty); len(entries) > 0 {
		t.Errorf("read-only Open created %s in an empty directory", entries[0].Name())
	}
}

func TestSecondOpenIsExcluded(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second writable Open succeeded while the first holds the lock")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := mustOpen(t, dir, Options{})
	_ = s2
}

func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				k := testKey(fmt.Sprintf("g%d-i%d", g, i))
				if err := s.Put(k, []byte(fmt.Sprintf("payload %d/%d", g, i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, ok := s.Get(k); !ok {
					t.Errorf("Get(g%d-i%d) missed own put", g, i)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
}
