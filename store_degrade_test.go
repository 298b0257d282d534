package scalesim

import (
	"testing"

	"scalesim/internal/faultinject"
	"scalesim/internal/simcache"
)

// TestStoreDegradesAfterRepeatedIOErrors walks the degradation ladder: a
// store whose every write fails accrues storeFailThreshold consecutive
// failing tier operations and detaches itself — the cache survives in
// memory-only mode, stats stay readable, and CloseStore still releases the
// directory.
func TestStoreDegradesAfterRepeatedIOErrors(t *testing.T) {
	p := faultinject.New(faultinject.Config{Seed: 11, DiskError: 1})
	c := NewCache(0, 0)
	if err := c.AttachStoreFS(t.TempDir(), 0, p.FS(nil)); err != nil {
		t.Fatalf("AttachStoreFS under write faults: %v", err)
	}

	tier := &storeTier{s: c.store, c: c}
	for i := 0; i < storeFailThreshold; i++ {
		if c.StoreDegraded() {
			t.Fatalf("store degraded after %d failing ops, want %d", i, storeFailThreshold)
		}
		tier.PutBlob(simcache.Key{byte(i)}, []byte{codecFloat64, 'x'})
	}
	if !c.StoreDegraded() {
		t.Fatal("store not degraded after repeated I/O errors")
	}

	// The handle stays open for observability: stats still answer and show
	// the errors that tripped the ladder.
	st, ok := c.StoreStats()
	if !ok {
		t.Fatal("StoreStats stopped answering after degradation")
	}
	if st.IOErrors < int64(storeFailThreshold) {
		t.Errorf("IOErrors = %d, want >= %d", st.IOErrors, storeFailThreshold)
	}

	// Detach still works (its snapshot write may fail on the dying disk —
	// that is not a reason to keep the directory locked).
	c.CloseStore() //nolint:errcheck
	if _, ok := c.StoreStats(); ok {
		t.Error("StoreStats still reports a store after CloseStore")
	}
	if c.StoreDegraded() {
		t.Error("degraded flag survived CloseStore")
	}
}

// TestStoreDegradationLadderResetsOnCleanOp: only *consecutive* failures
// trip the ladder — a healthy operation in between (here a clean index
// miss, which does no I/O) resets the run, so sporadic errors never
// detach the store.
func TestStoreDegradationLadderResetsOnCleanOp(t *testing.T) {
	p := faultinject.New(faultinject.Config{Seed: 12, DiskError: 1})
	c := NewCache(0, 0)
	if err := c.AttachStoreFS(t.TempDir(), 0, p.FS(nil)); err != nil {
		t.Fatalf("AttachStoreFS under write faults: %v", err)
	}
	defer c.CloseStore() //nolint:errcheck

	tier := &storeTier{s: c.store, c: c}
	for i := 0; i < 3*storeFailThreshold; i++ {
		tier.PutBlob(simcache.Key{0xFF, byte(i)}, []byte{codecFloat64, 'x'}) // fails
		tier.GetBlob(simcache.Key{0xEE, byte(i)})                            // clean miss, resets
	}
	if c.StoreDegraded() {
		t.Fatal("alternating fail/clean operations tripped the ladder")
	}
}
