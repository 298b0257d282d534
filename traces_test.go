package scalesim

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestWriteTraces(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 8, 8
	cfg.Memory.Enabled = true

	topo := &Topology{Name: "tiny", Layers: []Layer{
		{Name: "G0", Kind: 1 /* GEMM */, M: 24, N: 16, K: 32},
	}}
	if err := New(cfg).WriteTraces(topo, dir); err != nil {
		t.Fatal(err)
	}

	for _, suffix := range []string{
		"_sram_ifmap_read.csv", "_sram_filter_read.csv",
		"_sram_ofmap_write.csv", "_dram_trace.csv",
	} {
		path := filepath.Join(dir, "G0"+suffix)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s: %v", suffix, err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", suffix)
		}
	}

	// SRAM trace rows must be "cycle, addr..." with non-negative,
	// non-decreasing... (cycles may interleave across phases, so just
	// validate the format and address region).
	f, err := os.Open(filepath.Join(dir, "G0_sram_ifmap_read.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	rows := 0
	for sc.Scan() {
		fields := strings.Split(sc.Text(), ", ")
		if len(fields) < 2 {
			t.Fatalf("malformed row %q", sc.Text())
		}
		for _, fld := range fields {
			if _, err := strconv.ParseInt(fld, 10, 64); err != nil {
				t.Fatalf("non-integer field %q", fld)
			}
		}
		rows++
	}
	if rows == 0 {
		t.Error("ifmap trace has no rows")
	}

	// DRAM trace has a header and R/W rows.
	data, err := os.ReadFile(filepath.Join(dir, "G0_dram_trace.csv"))
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "cycle, address, type, latency") {
		t.Error("dram trace missing header")
	}
	if !strings.Contains(s, ", R, ") || !strings.Contains(s, ", W, ") {
		t.Error("dram trace missing read or write rows")
	}
}

// TestWriteTracesCached: with a cache attached, repeated-shape layers and
// repeated WriteTraces calls serve the rendered trace bytes from the cache
// — and the files are byte-identical to the uncached ones.
func TestWriteTracesCached(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 8, 8
	cfg.Memory.Enabled = true
	topo := &Topology{Name: "tiny", Layers: []Layer{
		{Name: "G0", Kind: 1, M: 24, N: 16, K: 32},
		{Name: "G1", Kind: 1, M: 24, N: 16, K: 32}, // same shape as G0
		{Name: "G2", Kind: 1, M: 16, N: 16, K: 16},
	}}

	plainDir := t.TempDir()
	if err := New(cfg).WriteTraces(topo, plainDir); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0, 0)
	sim := New(cfg, WithCache(cache))
	cachedDir := t.TempDir()
	if err := sim.WriteTraces(topo, cachedDir); err != nil {
		t.Fatal(err)
	}
	// G1 shares G0's shape: its four files must come from the cache, so
	// the cache saw strictly fewer misses than layers×files.
	st := cache.Stats()
	if st.Hits == 0 {
		t.Errorf("repeated-shape trace emission produced no cache hits: %+v", st)
	}

	suffixes := []string{
		"_sram_ifmap_read.csv", "_sram_filter_read.csv",
		"_sram_ofmap_write.csv", "_dram_trace.csv",
	}
	compare := func(dir string) {
		t.Helper()
		for _, l := range topo.Layers {
			for _, suffix := range suffixes {
				want, err := os.ReadFile(filepath.Join(plainDir, l.Name+suffix))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(dir, l.Name+suffix))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Errorf("%s%s: cached trace differs from uncached", l.Name, suffix)
				}
			}
		}
	}
	compare(cachedDir)

	// Second emission (the after-a-Run scenario): everything is a hit and
	// the files still match.
	if _, err := sim.Run(context.Background(), topo); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	againDir := t.TempDir()
	if err := sim.WriteTraces(topo, againDir); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Misses != before.Misses {
		t.Errorf("second WriteTraces re-simulated: misses %d -> %d", before.Misses, after.Misses)
	}
	compare(againDir)
}

// TestWriteTracesOversizedNotCached: traces too large for the cache's
// byte budget are still written correctly, just not retained (and the
// capped tee must not have corrupted them).
func TestWriteTracesOversizedNotCached(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 8, 8
	cfg.Memory.Enabled = true
	topo := &Topology{Name: "tiny", Layers: []Layer{
		{Name: "G0", Kind: 1, M: 24, N: 16, K: 32},
	}}

	plainDir := t.TempDir()
	if err := New(cfg).WriteTraces(topo, plainDir); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0, 64) // MaxEntryBytes = 32: every blob is oversized
	cachedDir := t.TempDir()
	if err := New(cfg, WithCache(cache)).WriteTraces(topo, cachedDir); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Errorf("oversized trace blobs were cached: %+v", st)
	}
	for _, suffix := range []string{
		"_sram_ifmap_read.csv", "_sram_filter_read.csv",
		"_sram_ofmap_write.csv", "_dram_trace.csv",
	} {
		want, err := os.ReadFile(filepath.Join(plainDir, "G0"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(cachedDir, "G0"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s: file written through capped tee differs", suffix)
		}
	}
}

// TestDRAMTraceQueueDepth proves the DRAM trace is of the machine the
// reports describe: the memory stage bounds the controller queue by the
// tighter of the read and write depths, and the trace must too.
func TestDRAMTraceQueueDepth(t *testing.T) {
	topo := &Topology{Name: "tiny", Layers: []Layer{{Name: "G0", Kind: GEMM, M: 24, N: 16, K: 32}}}
	traceFor := func(read, write int) []byte {
		t.Helper()
		cfg := DefaultConfig()
		cfg.ArrayRows, cfg.ArrayCols = 8, 8
		cfg.Memory.Enabled = true
		cfg.Memory.ReadQueueDepth, cfg.Memory.WriteQueueDepth = read, write
		dir := t.TempDir()
		if err := New(cfg).WriteTraces(topo, dir); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "G0_dram_trace.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	shallowWrite := traceFor(128, 2)
	if !bytes.Equal(shallowWrite, traceFor(2, 2)) {
		t.Error("trace for {read:128, write:2} differs from {read:2, write:2}: the write depth is ignored")
	}
	if bytes.Equal(shallowWrite, traceFor(128, 128)) {
		t.Error("trace for {read:128, write:2} equals {read:128, write:128}: the queue depth has no effect on this workload")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("Conv 1/2:ab"); got != "Conv_1_2_ab" {
		t.Errorf("sanitize: %q", got)
	}
}
