package scalesim

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"scalesim/internal/dram"
	"scalesim/internal/systolic"
	"scalesim/internal/telemetry"
	"scalesim/internal/trace"
)

// WriteTraces runs the topology like Run and also emits SCALE-Sim's
// cycle-accurate trace files for every layer into dir:
//
//	<layer>_sram_ifmap_read.csv   per-cycle ifmap SRAM read addresses
//	<layer>_sram_filter_read.csv  per-cycle filter SRAM read addresses
//	<layer>_sram_ofmap_write.csv  per-cycle ofmap SRAM write addresses
//	<layer>_dram_trace.csv        timestamped DRAM transactions with
//	                              round-trip latencies (only when the
//	                              memory model is enabled)
//
// <layer> is the layer name with every character outside [A-Za-z0-9._-]
// replaced by '_'. WriteTraces writes nothing and returns an error when a
// layer's file name would be empty, "." or "..", or when two layers map to
// the same file name.
//
// The returned Result equals an uncached Run's with the same options, and
// the traces describe the machine it reports: the SRAM rows follow the
// dataflow the compute stage fixed (weight-stationary for sparse layers),
// and the DRAM rows stream from the memory stage's event-driven replay, so
// memory use does not grow with trace length. With the memory model on,
// the Analytical fidelity has no replay to trace and is an error. Files
// can be large: a layer with C compute cycles produces O(C) rows.
//
// WriteTraces never uses a cache (a cached layer has no replay to trace).
// It runs the run's stage pipeline (WithStages): the DRAM trace holds what
// the memory stage replays, only its header in a pipeline without one.
// Like Run it simulates each distinct layer shape once, on the worker
// pool, and stops between layers when ctx is cancelled; no trace byte
// depends on the layer name, so a repeated shape's files are byte copies
// of its first layer's.
func (s *Simulator) WriteTraces(ctx context.Context, topo *Topology, dir string, opts ...Option) (*Result, error) {
	o := s.opts
	for _, opt := range opts {
		opt(&o)
	}
	if s.cfg.Memory.Enabled && o.fidelity == Analytical {
		return nil, fmt.Errorf("scalesim: traces with the memory model on need the event-driven replay; fidelity %q has none", Analytical)
	}
	if err := checkTraceNames(topo); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := validateRun(&s.cfg, topo); err != nil {
		return nil, err
	}
	o.cache, o.traceFiles = nil, dir
	return run(ctx, &s.cfg, &o, topo)
}

// checkTraceNames refuses a topology whose layer names cannot name trace
// files: a base name that is empty, "." or ".." would put the files beside
// or above the output directory, and two layers sharing a base would
// overwrite each other's files.
func checkTraceNames(topo *Topology) error {
	first := make(map[string]int, len(topo.Layers))
	for i := range topo.Layers {
		b := sanitize(topo.Layers[i].Name)
		switch b {
		case "", ".", "..":
			return fmt.Errorf("scalesim: layer %d name %q cannot name trace files", i, topo.Layers[i].Name)
		}
		if j, dup := first[b]; dup {
			return fmt.Errorf("scalesim: layers %d (%q) and %d (%q) would both write traces as %q",
				j, topo.Layers[j].Name, i, topo.Layers[i].Name, b)
		}
		first[b] = i
	}
	return nil
}

// runTracedStages runs the layer's stages with its DRAM trace attached to
// the memory stage's replay, then writes its SRAM traces from the dataflow
// and filter density the compute stage fixed.
func runTracedStages(ctx context.Context, o *options, sc *StageContext, lr *LayerResult, span *telemetry.Span) (err error) {
	base := filepath.Join(o.traceFiles, sanitize(sc.Layer.Name))
	if sc.Config.Memory.Enabled {
		f, cerr := os.Create(base + traceSuffixes[3])
		if cerr != nil {
			return cerr
		}
		defer closeFile(f, &err)
		w := trace.NewDRAMWriter(f)
		defer closeFile(w, &err)
		sc.dramSink = func(r dram.Request) {
			w.Record(trace.DRAMRecord{Cycle: r.Arrive, Addr: r.Addr, Write: r.Write, Latency: max(r.Done-r.Arrive, 0)})
		}
	}
	if err := runStages(ctx, o, sc, lr, span); err != nil {
		return err
	}
	return writeSRAMTraces(base, sc)
}

// traceSuffixes names a layer's trace files: three SRAM traces, then the
// DRAM trace, written only with the memory model on.
var traceSuffixes = [4]string{
	"_sram_ifmap_read.csv", "_sram_filter_read.csv", "_sram_ofmap_write.csv", "_dram_trace.csv",
}

// copyLayerTraces copies layer from's trace files under dir to layer to's.
func copyLayerTraces(ctx context.Context, cfg *Config, dir string, from, to *Layer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 3
	if cfg.Memory.Enabled {
		n = 4
	}
	src, dst := filepath.Join(dir, sanitize(from.Name)), filepath.Join(dir, sanitize(to.Name))
	for _, suffix := range traceSuffixes[:n] {
		in, err := os.Open(src + suffix)
		if err != nil {
			return err
		}
		out, err := os.Create(dst + suffix)
		if err == nil {
			_, err = io.Copy(out, in)
			closeFile(out, &err)
		}
		in.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func writeSRAMTraces(base string, sc *StageContext) (err error) {
	var w [3]*trace.SRAMWriter
	for i, suffix := range traceSuffixes[:3] {
		f, cerr := os.Create(base + suffix)
		if cerr != nil {
			return cerr
		}
		defer closeFile(f, &err)
		w[i] = trace.NewSRAMWriter(f)
		defer closeFile(w[i], &err)
	}
	return systolic.Stream(sc.Dataflow, sc.Rows, sc.Cols,
		systolic.Gemm{M: sc.M, N: sc.N, K: sc.K}, func(d *systolic.Demand) bool {
			w[0].Row(d.Cycle, d.IfmapReads)
			w[1].Row(d.Cycle, d.FilterReads)
			w[2].Row(d.Cycle, d.OfmapWrites)
			return true
		})
}

// closeFile closes c (a file, or a trace writer, which flushes) and, on
// the success path, reports its error in *err: a write error that surfaces
// only at close would otherwise leave a truncated trace behind a nil
// return.
func closeFile(c io.Closer, err *error) {
	if cerr := c.Close(); *err == nil {
		*err = cerr
	}
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
