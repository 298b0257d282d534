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

// TestWriteTracesRejectsUnsafeNames: a layer name that maps to no file
// name of its own ("", ".", "..") would put trace files beside or above
// the output directory, and names that sanitize alike would overwrite each
// other. Both are errors, and nothing is written.
func TestWriteTracesRejectsUnsafeNames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 8, 8
	for _, names := range [][]string{{""}, {"."}, {".."}, {"a/b", "a_b"}} {
		topo := &Topology{Name: "unsafe", Layers: []Layer{{Name: "ok", Kind: GEMM, M: 8, N: 8, K: 8}}}
		for _, n := range names {
			topo.Layers = append(topo.Layers, Layer{Name: n, Kind: GEMM, M: 8, N: 8, K: 8})
		}
		root := t.TempDir()
		err := New(cfg).WriteTraces(topo, filepath.Join(root, "x", "out"))
		if err == nil {
			t.Errorf("names %q: WriteTraces succeeded", names)
		}
		filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				t.Errorf("names %q: wrote %s", names, path)
			}
			return err
		})
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

// TestDRAMTraceRowsMatchMemoryRequests: a layer's _dram_trace.csv has one
// row per request the memory report counts, for dense and 2:4-sparse
// layers under every dataflow. A sparse layer runs weight-stationary with
// its filter traffic scaled by the pattern's density, whatever the
// configured dataflow, and its trace must be of that machine too.
func TestDRAMTraceRowsMatchMemoryRequests(t *testing.T) {
	for _, df := range []Dataflow{OutputStationary, WeightStationary, InputStationary} {
		cfg := DefaultConfig()
		cfg.ArrayRows, cfg.ArrayCols = 16, 16
		cfg.Dataflow = df
		cfg.Memory.Enabled = true
		cfg.Sparsity.Enabled = true
		topo := &Topology{Name: "mix", Layers: []Layer{
			{Name: "dense", Kind: GEMM, M: 96, N: 80, K: 200},
			{Name: "sparse", Kind: GEMM, M: 96, N: 80, K: 200, Sparsity: Sparsity{N: 2, M: 4}},
		}}
		res, err := New(cfg).Run(context.Background(), topo)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := New(cfg).WriteTraces(topo, dir); err != nil {
			t.Fatal(err)
		}
		for _, lr := range res.Layers {
			data, err := os.ReadFile(filepath.Join(dir, lr.Layer.Name+"_dram_trace.csv"))
			if err != nil {
				t.Fatal(err)
			}
			rows := int64(bytes.Count(data, []byte("\n"))) - 1 // header
			if rows != lr.Memory.Requests {
				t.Errorf("%v %s: %d trace rows, memory report counts %d requests",
					df, lr.Layer.Name, rows, lr.Memory.Requests)
			}
		}
	}
}
