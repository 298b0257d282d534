package scalesim

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"scalesim/internal/dram"
	"scalesim/internal/simcache"
	"scalesim/internal/sram"
	"scalesim/internal/systolic"
	"scalesim/internal/trace"
)

// WriteTraces emits SCALE-Sim's cycle-accurate trace files for every layer
// of the topology into dir:
//
//	<layer>_sram_ifmap_read.csv   per-cycle ifmap SRAM read addresses
//	<layer>_sram_filter_read.csv  per-cycle filter SRAM read addresses
//	<layer>_sram_ofmap_write.csv  per-cycle ofmap SRAM write addresses
//	<layer>_dram_trace.csv        timestamped DRAM transactions with
//	                              round-trip latencies (only when the
//	                              memory model is enabled)
//
// Traces can be large: a layer with C compute cycles produces O(C) rows.
//
// When the Simulator was built with WithCache (or WithSharedCache), the
// rendered trace bytes are cached by layer shape, so repeated-shape layers
// and repeated WriteTraces calls after a Run do not regenerate the demand
// stream or re-simulate the DRAM system — the bytes are written straight
// from the cache. Blobs that exceed the cache's byte budget are still
// written but not retained.
func (s *Simulator) WriteTraces(topo *Topology, dir string) error {
	if err := s.cfg.Validate(); err != nil {
		return err
	}
	if err := topo.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// The configuration part of the DRAM trace key is constant across the
	// call; hash it once instead of reflecting over Config per layer.
	var dramBase simcache.Key
	if s.traceCache() != nil {
		h := simcache.NewHasher()
		h.String("scalesim/trace-dram/v2")
		h.Value(fingerprintConfig(&s.cfg))
		dramBase = h.Sum()
	}
	for i := range topo.Layers {
		if err := s.writeLayerTraces(&topo.Layers[i], dir, dramBase); err != nil {
			return fmt.Errorf("scalesim: traces for layer %q: %w", topo.Layers[i].Name, err)
		}
	}
	return nil
}

func (s *Simulator) writeLayerTraces(l *Layer, dir string, dramBase simcache.Key) error {
	m, n, k := l.GEMMDims()
	base := filepath.Join(dir, sanitize(l.Name))
	if err := s.writeSRAMTraces(base, m, n, k); err != nil {
		return err
	}
	if !s.cfg.Memory.Enabled {
		return nil
	}
	return s.writeDRAMTrace(base, dramBase, m, n, k)
}

// traceCache returns the simulator's attached cache, or nil.
func (s *Simulator) traceCache() *simcache.Cache {
	if s.opts.cache == nil {
		return nil
	}
	return s.opts.cache.c
}

// traceBudget bounds the total bytes a group of tee buffers may retain —
// the cache's admissible entry size, shared across every buffer whose
// blobs will be cached as one entry, so buffering can never exceed what
// the cache would accept. Single-goroutine use only (the trace generators
// are sequential).
type traceBudget struct {
	remaining int64
	over      bool
}

// cappedBuffer accumulates teed trace bytes while its shared budget
// lasts; past it the budget is marked overdrawn, buffered bytes are
// dropped and further writes are counted but not retained, so an
// uncacheably large trace never balloons resident memory just to be
// rejected by the cache afterwards. Write never fails: the file writer
// sharing the MultiWriter is the one that must see every byte.
type cappedBuffer struct {
	buf    bytes.Buffer
	budget *traceBudget
}

func (b *cappedBuffer) Write(p []byte) (int, error) {
	if !b.budget.over {
		if int64(len(p)) > b.budget.remaining {
			b.budget.over = true
			b.buf = bytes.Buffer{} // free what was buffered so far
		} else {
			b.budget.remaining -= int64(len(p))
			b.buf.Write(p)
		}
	}
	return len(p), nil
}

// sramTraceBlobs holds the rendered SRAM trace CSVs of one layer shape.
// The three files depend only on (dataflow, array shape, GEMM dims) — the
// demand stream carries no layer name and no memory/energy state — so one
// entry serves every equal-shaped layer under any configuration that
// agrees on those fields.
type sramTraceBlobs struct {
	ifmap, filter, ofmap []byte
}

func (b *sramTraceBlobs) size() int64 {
	return int64(len(b.ifmap) + len(b.filter) + len(b.ofmap))
}

var sramTraceSuffixes = [3]string{
	"_sram_ifmap_read.csv", "_sram_filter_read.csv", "_sram_ofmap_write.csv",
}

func (b *sramTraceBlobs) writeFiles(base string) error {
	for i, blob := range [3][]byte{b.ifmap, b.filter, b.ofmap} {
		if err := os.WriteFile(base+sramTraceSuffixes[i], blob, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (s *Simulator) writeSRAMTraces(base string, m, n, k int) error {
	cc := s.traceCache()
	var key simcache.Key
	if cc != nil {
		h := simcache.NewHasher()
		h.String("scalesim/trace-sram/v1")
		for _, v := range []int{int(s.cfg.Dataflow), s.cfg.ArrayRows, s.cfg.ArrayCols, m, n, k} {
			h.Int(int64(v))
		}
		key = h.Sum()
		if v, ok := cc.Get(key); ok {
			return v.(*sramTraceBlobs).writeFiles(base)
		}
	}

	fIf, err := os.Create(base + sramTraceSuffixes[0])
	if err != nil {
		return err
	}
	defer fIf.Close()
	fFl, err := os.Create(base + sramTraceSuffixes[1])
	if err != nil {
		return err
	}
	defer fFl.Close()
	fOf, err := os.Create(base + sramTraceSuffixes[2])
	if err != nil {
		return err
	}
	defer fOf.Close()

	// With a cache attached, tee the rendered bytes into memory so equal
	// shapes (and later WriteTraces calls) skip regeneration. The tee is
	// capped at the cache's admissible entry size: traces too large to
	// cache stream to disk as before without being held in RAM.
	dstIf, dstFl, dstOf := io.Writer(fIf), io.Writer(fFl), io.Writer(fOf)
	budget := &traceBudget{}
	bIf, bFl, bOf := cappedBuffer{budget: budget}, cappedBuffer{budget: budget}, cappedBuffer{budget: budget}
	if cc != nil {
		// One budget across the three blobs: they are cached (and size-
		// checked) as a single entry.
		budget.remaining = cc.MaxEntryBytes()
		dstIf = io.MultiWriter(fIf, &bIf)
		dstFl = io.MultiWriter(fFl, &bFl)
		dstOf = io.MultiWriter(fOf, &bOf)
	}

	wIf := trace.NewSRAMWriter(dstIf)
	wFl := trace.NewSRAMWriter(dstFl)
	wOf := trace.NewSRAMWriter(dstOf)
	err = systolic.Stream(s.cfg.Dataflow, s.cfg.ArrayRows, s.cfg.ArrayCols,
		systolic.Gemm{M: m, N: n, K: k}, func(d *systolic.Demand) bool {
			wIf.Row(d.Cycle, d.IfmapReads)
			wFl.Row(d.Cycle, d.FilterReads)
			wOf.Row(d.Cycle, d.OfmapWrites)
			return true
		})
	if err != nil {
		return err
	}
	for _, w := range []*trace.SRAMWriter{wIf, wFl, wOf} {
		if err := w.Close(); err != nil {
			return err
		}
	}
	if cc != nil && !budget.over {
		blobs := &sramTraceBlobs{
			ifmap: bIf.buf.Bytes(), filter: bFl.buf.Bytes(), ofmap: bOf.buf.Bytes(),
		}
		cc.Put(key, blobs, blobs.size())
	}
	return nil
}

// writeDRAMTrace runs the cycle-accurate memory workflow for the layer
// shape and emits the timestamped transaction trace. The rendered bytes
// are keyed by the full simulation-relevant configuration plus the GEMM
// dims: unlike the SRAM traces they depend on the memory section, SRAM
// sizes, word size and bandwidth.
func (s *Simulator) writeDRAMTrace(base string, dramBase simcache.Key, m, n, k int) error {
	cc := s.traceCache()
	var key simcache.Key
	if cc != nil {
		h := simcache.NewHasher()
		h.Bytes(dramBase[:])
		for _, v := range []int{m, n, k} {
			h.Int(int64(v))
		}
		key = h.Sum()
		if v, ok := cc.Get(key); ok {
			return os.WriteFile(base+"_dram_trace.csv", v.([]byte), 0o644)
		}
	}

	tech, err := dram.TechByName(s.cfg.Memory.Technology)
	if err != nil {
		return err
	}
	sopts, dopts, ropts := memoryEngine(&s.cfg)
	sys, err := dram.New(tech, dopts)
	if err != nil {
		return err
	}
	sched, err := sram.BuildSchedule(s.cfg.Dataflow, s.cfg.ArrayRows, s.cfg.ArrayCols,
		systolic.Gemm{M: m, N: n, K: k}, sopts)
	if err != nil {
		return err
	}
	ropts.CollectTrace = true
	res, err := sram.Simulate(sched, sys, ropts)
	if err != nil {
		return err
	}
	fD, err := os.Create(base + "_dram_trace.csv")
	if err != nil {
		return err
	}
	defer fD.Close()
	dst := io.Writer(fD)
	buf := cappedBuffer{budget: &traceBudget{}}
	if cc != nil {
		buf.budget.remaining = cc.MaxEntryBytes()
		dst = io.MultiWriter(fD, &buf)
	}
	wD := trace.NewDRAMWriter(dst)
	for _, e := range res.Trace {
		lat := e.Done - e.Arrive
		if lat < 0 {
			lat = 0
		}
		wD.Record(trace.DRAMRecord{Cycle: e.Arrive, Addr: e.Addr, Write: e.Write, Latency: lat})
	}
	if err := wD.Close(); err != nil {
		return err
	}
	if cc != nil && !buf.budget.over {
		cc.Put(key, buf.buf.Bytes(), int64(buf.buf.Len()))
	}
	return nil
}

// sanitize maps an arbitrary user string (layer, run or sweep-point name) to
// a file-system-safe base name.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, name)
}
