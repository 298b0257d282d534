package scalesim

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"scalesim/internal/config"
)

// TestStoreWarmStartsFreshCache is the tentpole's persistence bar: a fresh
// cache (a restarted process) pointed at the same store directory must
// answer every previously-seen layer from disk — zero simulations — with
// reports byte-identical to an uncached run.
func TestStoreWarmStartsFreshCache(t *testing.T) {
	cfg := fullModelConfig()
	topo := repeatedShapeTopology(4)
	ctx := context.Background()
	dir := t.TempDir()

	plain, err := New(cfg).Run(ctx, topo)
	if err != nil {
		t.Fatal(err)
	}

	// "Process one": cold run against an empty store.
	first := NewCache(0, 0)
	if err := first.AttachStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	cold, err := New(cfg).Run(ctx, topo, WithCache(first))
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheStats.Misses != 2 || cold.CacheStats.Hits != 3 {
		t.Errorf("cold stats %+v, want 2 misses, 3 hits", cold.CacheStats)
	}
	st, ok := first.StoreStats()
	if !ok {
		t.Fatal("StoreStats reports no store attached")
	}
	if st.Puts == 0 || st.Entries == 0 {
		t.Fatalf("store after cold run: %+v, want persisted entries", st)
	}
	if err := first.CloseStore(); err != nil {
		t.Fatalf("CloseStore: %v", err)
	}
	if _, ok := first.StoreStats(); ok {
		t.Fatal("StoreStats still reports a store after CloseStore")
	}

	// "Process two": fresh in-memory cache, same directory.
	second := NewCache(0, 0)
	if err := second.AttachStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	warm, err := New(cfg).Run(ctx, topo, WithCache(second))
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheStats.Misses != 0 || warm.CacheStats.Hits != 5 {
		t.Errorf("warm stats %+v, want 0 misses, 5 hits (all from disk)", warm.CacheStats)
	}
	if cs := second.Stats(); cs.StoreHits == 0 {
		t.Errorf("cache stats %+v, want StoreHits > 0", cs)
	}
	st2, _ := second.StoreStats()
	if st2.Hits == 0 || st2.Recovered == 0 {
		t.Errorf("store stats %+v, want disk hits and recovered entries", st2)
	}

	if !reflect.DeepEqual(plain.Layers, cold.Layers) {
		t.Error("stored cold run differs from uncached run")
	}
	if !reflect.DeepEqual(plain.Layers, warm.Layers) {
		t.Error("disk-served warm run differs from uncached run")
	}
	ref := reportBytes(t, plain)
	if !bytes.Equal(ref, reportBytes(t, cold)) {
		t.Error("cold stored reports not byte-identical to uncached")
	}
	if !bytes.Equal(ref, reportBytes(t, warm)) {
		t.Error("warm disk-served reports not byte-identical to uncached")
	}
	if err := second.CloseStore(); err != nil {
		t.Fatalf("CloseStore: %v", err)
	}
}

func TestAttachStoreConflicts(t *testing.T) {
	c := NewCache(0, 0)
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := c.AttachStore(dirA, 0); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	defer c.CloseStore()
	if err := c.AttachStore(dirA, 0); err != nil {
		t.Fatalf("re-attaching the same dir: %v", err)
	}
	if err := c.AttachStore(dirB, 0); err == nil {
		t.Fatal("attaching a second dir succeeded")
	}
	// The directory is single-owner: a second cache cannot attach it.
	other := NewCache(0, 0)
	if err := other.AttachStore(dirA, 0); err == nil {
		other.CloseStore()
		t.Fatal("second cache attached an owned store dir")
	}
}

func TestStoreCodecRoundTrips(t *testing.T) {
	var codec storeCodec

	f := 3.14159e-7
	p, ok := codec.Encode(f)
	if !ok {
		t.Fatal("Encode(float64) not ok")
	}
	v, size, ok := codec.Decode(p)
	if !ok || size != 8 || v.(float64) != f {
		t.Fatalf("float64 round trip = %v, %d, %v", v, size, ok)
	}
	nan := math.NaN()
	p, _ = codec.Encode(nan)
	v, _, _ = codec.Decode(p)
	if !math.IsNaN(v.(float64)) {
		t.Fatalf("NaN round trip = %v", v)
	}

	if _, ok := codec.Encode(struct{ X int }{1}); ok {
		t.Fatal("Encode accepted an unknown type")
	}
	if _, _, ok := codec.Decode(nil); ok {
		t.Fatal("Decode accepted an empty payload")
	}
	if _, _, ok := codec.Decode([]byte{codecLayerResult, 0xFF}); ok {
		t.Fatal("Decode accepted a truncated gob payload")
	}
}

// TestStoreDecodesPriorLayerResult keeps a store written before Config's
// enums learned their JSON form answering: testdata/layer_result_multicore.gob
// is a storeCodec payload of a multi-core LayerResult (Partition.Strategy =
// SpatioTemporal1) encoded by the commit before them. It must decode to what
// the same simulation yields today and re-encode to the same bytes — a
// marshaler method on an enum that gob honours breaks both.
func TestStoreDecodesPriorLayerResult(t *testing.T) {
	payload, err := os.ReadFile(filepath.Join("testdata", "layer_result_multicore.gob"))
	if err != nil {
		t.Fatal(err)
	}
	v, _, ok := storeCodec{}.Decode(payload)
	if !ok {
		t.Fatal("payload no longer decodes")
	}
	cfg := DefaultConfig()
	cfg.MultiCore.Enabled = true
	cfg.MultiCore.PartitionRows, cfg.MultiCore.PartitionCols = 2, 2
	cfg.MultiCore.Strategy = config.SpatioTemporal1
	topo := &Topology{Name: "mc", Layers: []Layer{{Name: "fc", Kind: GEMM, M: 64, N: 48, K: 96}}}
	res, err := New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	got, want := v.(*LayerResult), &res.Layers[0]
	if got.Partition == nil || got.Partition.Strategy != config.SpatioTemporal1 {
		t.Fatalf("decoded partition = %v, want spatiotemporal1", got.Partition)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded payload:\n got %+v\nwant %+v", got, want)
	}
	if again, _ := (storeCodec{}).Encode(want); !bytes.Equal(again, payload) {
		t.Error("today's encoding of the same result differs from the stored payload")
	}
}
