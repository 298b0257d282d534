package scalesim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"scalesim/internal/dram"
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
// <layer> is the layer name with every character outside [A-Za-z0-9._-]
// replaced by '_'. WriteTraces writes nothing and returns an error when a
// layer's file name would be empty, "." or "..", or when two layers map to
// the same file name.
//
// Traces can be large: a layer with C compute cycles produces O(C) rows.
// WriteTraces always regenerates them and ignores any attached cache.
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
	for i := range topo.Layers {
		if err := s.writeLayerTraces(&topo.Layers[i], filepath.Join(dir, bases[i])); err != nil {
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
// layers) and the filter density the memory workflow streams.
func (s *Simulator) writeLayerTraces(l *Layer, base string) error {
	sc := newStageContext(&s.cfg, &s.opts, l)
	if err := (computeStage{}).Apply(context.TODO(), sc, &LayerResult{Layer: *l}); err != nil {
		return err
	}
	if err := writeSRAMTraces(base, sc); err != nil {
		return err
	}
	if !s.cfg.Memory.Enabled {
		return nil
	}
	return s.writeDRAMTrace(base, sc)
}

var sramTraceSuffixes = [3]string{
	"_sram_ifmap_read.csv", "_sram_filter_read.csv", "_sram_ofmap_write.csv",
}

func writeSRAMTraces(base string, sc *StageContext) error {
	var w [3]*trace.SRAMWriter
	for i, suffix := range sramTraceSuffixes {
		f, err := os.Create(base + suffix)
		if err != nil {
			return err
		}
		defer f.Close()
		w[i] = trace.NewSRAMWriter(f)
	}
	err := systolic.Stream(sc.Dataflow, sc.Rows, sc.Cols,
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

// writeDRAMTrace runs the cycle-accurate memory workflow for the layer
// shape and emits the timestamped transaction trace.
func (s *Simulator) writeDRAMTrace(base string, sc *StageContext) error {
	tech, err := dram.TechByName(s.cfg.Memory.Technology)
	if err != nil {
		return err
	}
	sopts, dopts, ropts := memoryEngine(&s.cfg)
	sopts.FilterRatio = sc.FilterRatio
	sys, err := dram.New(tech, dopts)
	if err != nil {
		return err
	}
	sched, err := sram.BuildSchedule(sc.Dataflow, sc.Rows, sc.Cols,
		systolic.Gemm{M: sc.M, N: sc.N, K: sc.K}, sopts)
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
	wD := trace.NewDRAMWriter(fD)
	for _, e := range res.Trace {
		lat := e.Done - e.Arrive
		if lat < 0 {
			lat = 0
		}
		wD.Record(trace.DRAMRecord{Cycle: e.Arrive, Addr: e.Addr, Write: e.Write, Latency: lat})
	}
	return wD.Close()
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
