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
// <layer> is the layer name with every character outside [A-Za-z0-9._-]
// replaced by '_'. WriteTraces writes nothing and returns an error when a
// layer's file name would be empty, "." or "..", or when two layers map to
// the same file name.
//
// The DRAM rows stream from the memory stage's event-driven replay, at any
// fidelity, so memory use does not grow with trace length. Files can be
// large: a layer with C compute cycles produces O(C) rows. WriteTraces
// ignores any cache and WithStages. No trace byte depends on the layer
// name, so each distinct layer shape is simulated once and a repeated
// shape's files are byte copies of its first layer's.
func (s *Simulator) WriteTraces(topo *Topology, dir string) error {
	if err := s.cfg.Validate(); err != nil {
		return err
	}
	if err := topo.Validate(); err != nil {
		return err
	}
	bases, err := traceBases(topo)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rep := shapeGroups(topo.Layers, true)
	for i, r := range rep {
		base := filepath.Join(dir, bases[i])
		if r == i {
			err = s.writeLayerTraces(&topo.Layers[i], base)
		} else {
			err = s.copyLayerTraces(filepath.Join(dir, bases[r]), base)
		}
		if err != nil {
			return fmt.Errorf("scalesim: traces for layer %q: %w", topo.Layers[i].Name, err)
		}
	}
	return nil
}

// traceBases returns each layer's trace file base name. A base that is
// empty, "." or ".." would put the files beside or above the output
// directory, and two layers sharing a base would overwrite each other's
// files, so either is an error.
func traceBases(topo *Topology) ([]string, error) {
	bases := make([]string, len(topo.Layers))
	first := make(map[string]int, len(topo.Layers))
	for i := range topo.Layers {
		b := sanitize(topo.Layers[i].Name)
		switch b {
		case "", ".", "..":
			return nil, fmt.Errorf("scalesim: layer %d name %q cannot name trace files", i, topo.Layers[i].Name)
		}
		if j, dup := first[b]; dup {
			return nil, fmt.Errorf("scalesim: layers %d (%q) and %d (%q) would both write traces as %q",
				j, topo.Layers[j].Name, i, topo.Layers[i].Name, b)
		}
		first[b] = i
		bases[i] = b
	}
	return bases, nil
}

// writeLayerTraces traces the machine the reports describe: the compute
// stage fixes the layer's effective dataflow (weight-stationary for sparse
// layers) and the filter density, and the memory stage's replay emits the
// DRAM rows.
func (s *Simulator) writeLayerTraces(l *Layer, base string) (err error) {
	sc := newStageContext(&s.cfg, &s.opts, l)
	sc.Fidelity = EventDriven // only the replay has transactions to trace
	lr := &LayerResult{Layer: *l}
	if err := (computeStage{}).Apply(context.TODO(), sc, lr); err != nil {
		return err
	}
	if err := writeSRAMTraces(base, sc); err != nil {
		return err
	}
	if !s.cfg.Memory.Enabled {
		return nil
	}
	f, err := os.Create(base + traceSuffixes[3])
	if err != nil {
		return err
	}
	defer closeFile(f, &err)
	w := trace.NewDRAMWriter(f)
	sc.dramSink = func(r dram.Request) {
		w.Record(trace.DRAMRecord{Cycle: r.Arrive, Addr: r.Addr, Write: r.Write, Latency: max(r.Done-r.Arrive, 0)})
	}
	if err := (memoryStage{}).Apply(context.TODO(), sc, lr); err != nil {
		return err
	}
	return w.Close()
}

// traceSuffixes names a layer's trace files: three SRAM traces, then the
// DRAM trace, written only with the memory model on.
var traceSuffixes = [4]string{
	"_sram_ifmap_read.csv", "_sram_filter_read.csv", "_sram_ofmap_write.csv", "_dram_trace.csv",
}

// copyLayerTraces copies the trace files written under base from to base to.
func (s *Simulator) copyLayerTraces(from, to string) error {
	n := 3
	if s.cfg.Memory.Enabled {
		n = 4
	}
	for _, suffix := range traceSuffixes[:n] {
		in, err := os.Open(from + suffix)
		if err != nil {
			return err
		}
		out, err := os.Create(to + suffix)
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
	}
	err = systolic.Stream(sc.Dataflow, sc.Rows, sc.Cols,
		systolic.Gemm{M: sc.M, N: sc.N, K: sc.K}, func(d *systolic.Demand) bool {
			w[0].Row(d.Cycle, d.IfmapReads)
			w[1].Row(d.Cycle, d.FilterReads)
			w[2].Row(d.Cycle, d.OfmapWrites)
			return true
		})
	if err != nil {
		return err
	}
	for _, wr := range w {
		if err := wr.Close(); err != nil {
			return err
		}
	}
	return nil
}

// closeFile closes f and, on the success path, reports its error in *err:
// a write error that surfaces only at close would otherwise leave a
// truncated trace behind a nil return.
func closeFile(f *os.File, err *error) {
	if cerr := f.Close(); *err == nil {
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
