package scalesim

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
	if _, err := New(cfg).WriteTraces(context.Background(), topo, dir); err != nil {
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
		_, err := New(cfg).WriteTraces(context.Background(), topo, filepath.Join(root, "x", "out"))
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
		if _, err := New(cfg).WriteTraces(context.Background(), topo, dir); err != nil {
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
// row per request the memory report counts; every read's data is back
// (cycle + latency) and every write issued by the layer's total cycles. The
// inputs are a dense and a 2:4-sparse GEMM under every dataflow — a sparse
// layer runs weight-stationary with its filter traffic scaled by the
// pattern's density, whatever the configured dataflow, and its trace must
// be of that machine too — and the first layer shape of each built-in
// model not already covered by an earlier one, on a 64x64
// output-stationary array.
func TestDRAMTraceRowsMatchMemoryRequests(t *testing.T) {
	check := func(t *testing.T, cfg Config, topo *Topology) {
		res, err := New(cfg).Run(context.Background(), topo)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := New(cfg).WriteTraces(context.Background(), topo, dir); err != nil {
			t.Fatal(err)
		}
		for _, lr := range res.Layers {
			data, err := os.ReadFile(filepath.Join(dir, sanitize(lr.Layer.Name)+"_dram_trace.csv"))
			if err != nil {
				t.Fatal(err)
			}
			_, data, _ = bytes.Cut(data, []byte("\n")) // header
			var rows int64
			for len(data) > 0 {
				var row []byte
				row, data, _ = bytes.Cut(data, []byte("\n"))
				rows++
				// "cycle, address, R|W, latency"
				i, j := bytes.IndexByte(row, ','), bytes.LastIndexByte(row, ' ')
				if i < 0 || j < 3 {
					t.Fatalf("%s: malformed row %q", lr.Layer.Name, row)
				}
				cycle, err1 := strconv.ParseInt(string(row[:i]), 10, 64)
				latency, err2 := strconv.ParseInt(string(row[j+1:]), 10, 64)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: malformed row %q", lr.Layer.Name, row)
				}
				if row[j-2] == 'W' {
					latency = 0 // the final writes drain past TotalCycles
				}
				if cycle+latency > lr.TotalCycles {
					t.Fatalf("%v %s: row %q ends after the layer's %d total cycles",
						cfg.Dataflow, lr.Layer.Name, row, lr.TotalCycles)
				}
			}
			if rows != lr.Memory.Requests {
				t.Errorf("%v %s: %d trace rows, memory report counts %d requests",
					cfg.Dataflow, lr.Layer.Name, rows, lr.Memory.Requests)
			}
		}
	}
	for _, df := range []Dataflow{OutputStationary, WeightStationary, InputStationary} {
		cfg := DefaultConfig()
		cfg.ArrayRows, cfg.ArrayCols = 16, 16
		cfg.Dataflow = df
		cfg.Memory.Enabled = true
		cfg.Sparsity.Enabled = true
		t.Run("gemm/"+df.String(), func(t *testing.T) {
			check(t, cfg, &Topology{Name: "mix", Layers: []Layer{
				{Name: "dense", Kind: GEMM, M: 96, N: 80, K: 200},
				{Name: "sparse", Kind: GEMM, M: 96, N: 80, K: 200, Sparsity: Sparsity{N: 2, M: 4}},
			}})
		})
	}

	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 64, 64
	cfg.Dataflow = OutputStationary
	cfg.Memory.Enabled = true
	seen := map[[3]int]bool{}
	for _, name := range BuiltinTopologyNames() {
		topo, err := BuiltinTopology(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range topo.Layers {
			m, n, k := l.GEMMDims()
			if seen[[3]int{m, n, k}] {
				continue
			}
			seen[[3]int{m, n, k}] = true
			t.Run("zoo/"+name, func(t *testing.T) {
				t.Parallel()
				check(t, cfg, &Topology{Name: name, Layers: []Layer{l}})
			})
			break
		}
	}
}

// TestWriteTracesGolden pins every trace byte: the SHA-256 of each file
// WriteTraces writes for TestDRAMTraceRowsMatchMemoryRequests' dense and
// 2:4-sparse GEMM pair under every dataflow (16x16 array, memory on). A
// third layer repeats dense's shape under another name: its files are
// dense's, byte for byte.
func TestWriteTracesGolden(t *testing.T) {
	want := map[string]string{
		"is/dense_dram_trace.csv":        "fd10a4307d3be39f765e1d00b1ad14612006aff5eca722ec5ef63a038ece34b4",
		"is/dense_sram_filter_read.csv":  "18ad8cf6a56e6c9611fe373d6be5c1ce0c2fef131a423dd68897403026497626",
		"is/dense_sram_ifmap_read.csv":   "819937cba65fb019e9f401d08a9c4f2b2ae7e9fdecfcab7882be6c274185576f",
		"is/dense_sram_ofmap_write.csv":  "476cacb827a5fcb7b1d41e2b3adbbab15c2cc76f66f457c5adbd583a112fd1c4",
		"is/repeat_dram_trace.csv":       "fd10a4307d3be39f765e1d00b1ad14612006aff5eca722ec5ef63a038ece34b4",
		"is/repeat_sram_filter_read.csv": "18ad8cf6a56e6c9611fe373d6be5c1ce0c2fef131a423dd68897403026497626",
		"is/repeat_sram_ifmap_read.csv":  "819937cba65fb019e9f401d08a9c4f2b2ae7e9fdecfcab7882be6c274185576f",
		"is/repeat_sram_ofmap_write.csv": "476cacb827a5fcb7b1d41e2b3adbbab15c2cc76f66f457c5adbd583a112fd1c4",
		"is/sparse_dram_trace.csv":       "845aeed79ad7f8c67466ba1ab6155713b9f21044d56e6a54b461c9d4f147bdf6",
		"is/sparse_sram_filter_read.csv": "5d696288507483ab0a456f3a4c52ba3cedcbddc7b9820563c114d9a4de53862d",
		"is/sparse_sram_ifmap_read.csv":  "4cac8248b791ac67664c886267a753e117e8e0834530c99395505e011801199b",
		"is/sparse_sram_ofmap_write.csv": "d3bd60b763260245c6c840c254bdb3c4ecb787899389f298e845e8ba4b4135d6",
		"os/dense_dram_trace.csv":        "0eb5b8a72dfd6d9e258a6eeb551c10b3f5dcacee81c8c5c0002db8166e0a0f5f",
		"os/dense_sram_filter_read.csv":  "49bdd24fad14d5277994ca8c626bc7b71b314edff266919fd58a2e792944fd08",
		"os/dense_sram_ifmap_read.csv":   "dbfb2be55846f6076d1fc71c5b863b5685190523b67883623c6a60110a133335",
		"os/dense_sram_ofmap_write.csv":  "68430ec6a73e0b012768ebd278634827c8bddacc67115c366dedbf76be51fef3",
		"os/repeat_dram_trace.csv":       "0eb5b8a72dfd6d9e258a6eeb551c10b3f5dcacee81c8c5c0002db8166e0a0f5f",
		"os/repeat_sram_filter_read.csv": "49bdd24fad14d5277994ca8c626bc7b71b314edff266919fd58a2e792944fd08",
		"os/repeat_sram_ifmap_read.csv":  "dbfb2be55846f6076d1fc71c5b863b5685190523b67883623c6a60110a133335",
		"os/repeat_sram_ofmap_write.csv": "68430ec6a73e0b012768ebd278634827c8bddacc67115c366dedbf76be51fef3",
		"os/sparse_dram_trace.csv":       "845aeed79ad7f8c67466ba1ab6155713b9f21044d56e6a54b461c9d4f147bdf6",
		"os/sparse_sram_filter_read.csv": "5d696288507483ab0a456f3a4c52ba3cedcbddc7b9820563c114d9a4de53862d",
		"os/sparse_sram_ifmap_read.csv":  "4cac8248b791ac67664c886267a753e117e8e0834530c99395505e011801199b",
		"os/sparse_sram_ofmap_write.csv": "d3bd60b763260245c6c840c254bdb3c4ecb787899389f298e845e8ba4b4135d6",
		"ws/dense_dram_trace.csv":        "4233236cefb10b50f9f20a0e9da997583d7acbfdee293b40f61d0ee78a153234",
		"ws/dense_sram_filter_read.csv":  "5d696288507483ab0a456f3a4c52ba3cedcbddc7b9820563c114d9a4de53862d",
		"ws/dense_sram_ifmap_read.csv":   "4cac8248b791ac67664c886267a753e117e8e0834530c99395505e011801199b",
		"ws/dense_sram_ofmap_write.csv":  "d3bd60b763260245c6c840c254bdb3c4ecb787899389f298e845e8ba4b4135d6",
		"ws/repeat_dram_trace.csv":       "4233236cefb10b50f9f20a0e9da997583d7acbfdee293b40f61d0ee78a153234",
		"ws/repeat_sram_filter_read.csv": "5d696288507483ab0a456f3a4c52ba3cedcbddc7b9820563c114d9a4de53862d",
		"ws/repeat_sram_ifmap_read.csv":  "4cac8248b791ac67664c886267a753e117e8e0834530c99395505e011801199b",
		"ws/repeat_sram_ofmap_write.csv": "d3bd60b763260245c6c840c254bdb3c4ecb787899389f298e845e8ba4b4135d6",
		"ws/sparse_dram_trace.csv":       "845aeed79ad7f8c67466ba1ab6155713b9f21044d56e6a54b461c9d4f147bdf6",
		"ws/sparse_sram_filter_read.csv": "5d696288507483ab0a456f3a4c52ba3cedcbddc7b9820563c114d9a4de53862d",
		"ws/sparse_sram_ifmap_read.csv":  "4cac8248b791ac67664c886267a753e117e8e0834530c99395505e011801199b",
		"ws/sparse_sram_ofmap_write.csv": "d3bd60b763260245c6c840c254bdb3c4ecb787899389f298e845e8ba4b4135d6",
	}
	topo := &Topology{Name: "mix", Layers: []Layer{
		{Name: "dense", Kind: GEMM, M: 96, N: 80, K: 200},
		{Name: "sparse", Kind: GEMM, M: 96, N: 80, K: 200, Sparsity: Sparsity{N: 2, M: 4}},
		{Name: "repeat", Kind: GEMM, M: 96, N: 80, K: 200},
	}}
	got := map[string]string{}
	for _, df := range []Dataflow{OutputStationary, WeightStationary, InputStationary} {
		cfg := DefaultConfig()
		cfg.ArrayRows, cfg.ArrayCols = 16, 16
		cfg.Dataflow = df
		cfg.Memory.Enabled = true
		cfg.Sparsity.Enabled = true
		dir := t.TempDir()
		if _, err := New(cfg).WriteTraces(context.Background(), topo, dir); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got[df.String()+"/"+e.Name()] = fmt.Sprintf("%x", sha256.Sum256(data))
		}
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: sha256 %s, want %q", name, sum, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: not written", name)
		}
	}
}

// tracedTopology repeats two of its four distinct shapes, one of them a
// 2:4-sparse layer, under other names.
func tracedTopology() *Topology {
	conv := Layer{Name: "conv", Kind: Conv, IfmapH: 14, IfmapW: 14, FilterH: 3, FilterW: 3, Channels: 16, NumFilters: 24, Stride: 1}
	convAgain := conv
	convAgain.Name = "conv_again"
	return &Topology{Name: "traced", Layers: []Layer{
		{Name: "dense", Kind: GEMM, M: 96, N: 80, K: 200},
		conv,
		{Name: "sparse", Kind: GEMM, M: 96, N: 80, K: 200, Sparsity: Sparsity{N: 2, M: 4}},
		{Name: "dense_again", Kind: GEMM, M: 96, N: 80, K: 200},
		convAgain,
		{Name: "small", Kind: GEMM, M: 40, N: 24, K: 56},
	}}
}

func tracedConfig() Config {
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 16, 16
	cfg.Memory.Enabled = true
	cfg.Layout.Enabled = true
	cfg.Energy.Enabled = true
	cfg.Sparsity.Enabled = true
	return cfg
}

// TestWriteTracesMatchesRun: WriteTraces is a Run that also writes files,
// so its Result equals an uncached event-driven Run's, at any parallelism,
// and a repeated shape's files are its first layer's.
func TestWriteTracesMatchesRun(t *testing.T) {
	cfg, topo := tracedConfig(), tracedTopology()
	for _, par := range []int{1, 4} {
		want, err := New(cfg).Run(context.Background(), topo, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		got, err := New(cfg, WithCache(NewCache(0, 0))).WriteTraces(context.Background(), topo, dir, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: WriteTraces' Result differs from Run's", par)
		}
		for _, pair := range [][2]string{{"dense", "dense_again"}, {"conv", "conv_again"}} {
			for _, suffix := range traceSuffixes {
				a, errA := os.ReadFile(filepath.Join(dir, pair[0]+suffix))
				b, errB := os.ReadFile(filepath.Join(dir, pair[1]+suffix))
				if errA != nil || errB != nil || !bytes.Equal(a, b) {
					t.Errorf("parallelism %d: %s%s differs from %s's (%v, %v)", par, pair[1], suffix, pair[0], errA, errB)
				}
			}
		}
	}
}

// TestWriteTracesSimulatesEachShapeOnce counts the memory replay's spans:
// one sram.Simulate (one "sram.stream" phase) and one memory stage per
// distinct layer shape, none for a repeat.
func TestWriteTracesSimulatesEachShapeOnce(t *testing.T) {
	res, err := New(tracedConfig()).WriteTraces(context.Background(), tracedTopology(), t.TempDir(), WithTrace(""))
	if err != nil {
		t.Fatal(err)
	}
	var streams, memory int
	for _, s := range res.Spans() {
		switch {
		case s.Cat == "phase" && s.Name == "sram.stream":
			streams++
		case s.Cat == "stage" && s.Name == "memory":
			memory++
		}
	}
	if streams != 4 || memory != 4 {
		t.Errorf("%d sram.stream phases and %d memory stages, want 4 each (one per distinct shape)", streams, memory)
	}
}

// TestWriteTracesStopsOnCancel: a context cancelled after the first layer
// stops WriteTraces before the next one, which writes no file.
func TestWriteTracesStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := t.TempDir()
	_, err := New(tracedConfig()).WriteTraces(ctx, tracedTopology(), dir,
		WithParallelism(1), WithProgress(func(LayerProgress) { cancel() }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteTraces after cancel: %v, want context.Canceled", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "dense_") || strings.HasPrefix(e.Name(), "dense_again") {
			t.Errorf("wrote %s after the run was cancelled", e.Name())
		}
	}
	if len(entries) != 4 {
		t.Errorf("wrote %d files, want the first layer's 4", len(entries))
	}
}

// TestWriteTracesFidelity: with the memory model on, Analytical has no
// replay to trace and is refused before anything is written; with it off
// the tiers agree and both write the same SRAM traces.
func TestWriteTracesFidelity(t *testing.T) {
	topo := &Topology{Name: "tiny", Layers: []Layer{{Name: "G0", Kind: GEMM, M: 24, N: 16, K: 32}}}
	cfg := DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = 8, 8
	cfg.Memory.Enabled = true
	dir := filepath.Join(t.TempDir(), "out")
	_, err := New(cfg, WithFidelity(Analytical)).WriteTraces(context.Background(), topo, dir)
	if err == nil || !strings.Contains(err.Error(), `fidelity "analytical"`) {
		t.Errorf("memory on, Analytical: %v; want an error naming the fidelity", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("refused WriteTraces created its directory: %v", err)
	}

	cfg.Memory.Enabled = false
	trees := map[Fidelity]map[string][]byte{}
	for _, fid := range []Fidelity{EventDriven, Analytical} {
		dir := t.TempDir()
		if _, err := New(cfg).WriteTraces(context.Background(), topo, dir, WithFidelity(fid)); err != nil {
			t.Fatalf("memory off, %v: %v", fid, err)
		}
		trees[fid] = map[string][]byte{}
		for _, suffix := range traceSuffixes[:3] {
			data, err := os.ReadFile(filepath.Join(dir, "G0"+suffix))
			if err != nil {
				t.Fatal(err)
			}
			trees[fid][suffix] = data
		}
	}
	if !reflect.DeepEqual(trees[EventDriven], trees[Analytical]) {
		t.Error("memory off: Analytical and EventDriven traces differ")
	}
}
