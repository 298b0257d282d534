// Package sram models the accelerator's double-buffered scratchpads and
// their interface to main memory. It implements the paper's three-step
// memory workflow: (1) generate the timestamped DRAM demand trace from the
// fold structure of a layer, (2) feed it through the cycle-accurate DRAM
// model, and (3) replay execution with finite request queues and real
// round-trip latencies to obtain stall cycles.
//
// The replay (Simulate) streams: it walks each fold's spans with a line
// cursor as requests issue and holds only the requests in flight, in
// recycled slots, so its memory does not grow with a layer's line count.
package sram

import (
	"fmt"

	"scalesim/internal/config"
	"scalesim/internal/systolic"
)

// Span is a strided 2-D region of the operand address space: Rows rows of
// RowWords consecutive words, RowStride words apart, starting at Base.
type Span struct {
	Base      int64
	Rows      int64
	RowWords  int64
	RowStride int64
}

// Words returns the span's total word count.
func (s Span) Words() int64 { return s.Rows * s.RowWords }

// Fold is the memory view of one systolic fold: what must be resident
// before compute starts (stationary), what streams in during compute, what
// drains out after, and how long the compute itself takes.
type Fold struct {
	// Stationary spans must be fully fetched before the fold starts.
	Stationary []Span
	// Stream spans are consumed in order at ConsumeRate words/cycle over
	// the fold's streaming phase.
	Stream []Span
	// Writes drain after the fold completes (posted).
	Writes []Span
	// ComputeCycles is the fold's pipeline length (2R + C + T − 2).
	ComputeCycles int64
	// StreamCycles is the streaming phase length (T).
	StreamCycles int64
	// ConsumeRate is words consumed per streaming cycle (the tile rows).
	ConsumeRate int64
}

// StationaryWords sums the stationary volume.
func (f *Fold) StationaryWords() int64 {
	var w int64
	for _, s := range f.Stationary {
		w += s.Words()
	}
	return w
}

// StreamWords sums the streaming volume.
func (f *Fold) StreamWords() int64 {
	var w int64
	for _, s := range f.Stream {
		w += s.Words()
	}
	return w
}

// WriteWords sums the drain volume.
func (f *Fold) WriteWords() int64 {
	var w int64
	for _, s := range f.Writes {
		w += s.Words()
	}
	return w
}

// Schedule is the ordered fold sequence of one layer.
type Schedule struct {
	Dataflow config.Dataflow
	R, C     int
	G        systolic.Gemm
	Folds    []Fold
}

// ComputeCycles is the stall-free total.
func (s *Schedule) ComputeCycles() int64 {
	var total int64
	for i := range s.Folds {
		total += s.Folds[i].ComputeCycles
	}
	return total
}

// ReadWords is the total DRAM read volume in words.
func (s *Schedule) ReadWords() int64 {
	var total int64
	for i := range s.Folds {
		total += s.Folds[i].StationaryWords() + s.Folds[i].StreamWords()
	}
	return total
}

// WriteWords is the total DRAM write volume in words.
func (s *Schedule) WriteWords() int64 {
	var total int64
	for i := range s.Folds {
		total += s.Folds[i].WriteWords()
	}
	return total
}

// ScheduleOptions tunes BuildSchedule.
type ScheduleOptions struct {
	// FilterRatio < 1 shrinks the filter operand volume (and the
	// contraction folds) to model a compressed sparse filter; 0 or 1
	// means dense.
	FilterRatio float64
	// IfmapSRAMWords, FilterSRAMWords and OfmapSRAMWords are the
	// double-buffered scratchpad capacities. When an operand slice that
	// later folds re-use fits in half its scratchpad, the re-fetch (or
	// partial-sum spill) is served on-chip and omitted from the DRAM
	// schedule. Zero disables reuse modeling (every fold re-fetches).
	IfmapSRAMWords  int64
	FilterSRAMWords int64
	OfmapSRAMWords  int64
}

// BuildSchedule derives the fold-level memory schedule of a GEMM under the
// dataflow: the fold walk, with every visited fold copied out.
func BuildSchedule(df config.Dataflow, r, c int, g systolic.Gemm, opts ScheduleOptions) (*Schedule, error) {
	sched := &Schedule{Dataflow: df, R: r, C: c, G: g}
	err := walkFolds(df, r, c, g, opts, func(f *Fold) {
		cp := *f
		cp.Stationary = append([]Span(nil), f.Stationary...)
		cp.Stream = append([]Span(nil), f.Stream...)
		cp.Writes = append([]Span(nil), f.Writes...)
		sched.Folds = append(sched.Folds, cp)
	})
	if err != nil {
		return nil, err
	}
	return sched, nil
}

// walkFolds gives each fold of the GEMM's fold schedule its memory view. It
// calls visit for every fold in schedule order (row folds outer, column
// folds inner), handing it the same Fold each time: the fold and its span
// slices are overwritten by the next step, so a visitor that keeps anything
// must copy it (BuildSchedule does; the Analytical estimate only
// accumulates).
func walkFolds(df config.Dataflow, r, c int, g systolic.Gemm, opts ScheduleOptions, visit func(*Fold)) error {
	if r <= 0 || c <= 0 || g.M <= 0 || g.N <= 0 || g.K <= 0 {
		return fmt.Errorf("sram: invalid schedule request r=%d c=%d g=%+v", r, c, g)
	}
	filterRatio := opts.FilterRatio
	if filterRatio <= 0 || filterRatio > 1 {
		filterRatio = 1
	}
	kEff := int(float64(g.K)*filterRatio + 0.5)
	if kEff < 1 {
		kEff = 1
	}
	// The folds tile the compressed GEMM: sparsity shrinks the contraction
	// dimension, which maps onto the array rows for WS/IS and onto time
	// for OS.
	fs, err := systolic.NewFoldSchedule(df, r, c, systolic.Gemm{M: g.M, N: g.N, K: kEff})
	if err != nil {
		return err
	}
	fr := fs.FoldsR
	M, N, K := int64(g.M), int64(g.N), int64(g.K)

	// Reuse analysis: decide which operand slices stay resident across
	// the folds that re-use them (half the scratchpad, double-buffered).
	fits := func(words, sram int64) bool { return sram > 0 && words <= sram/2 }
	var ifmapResident, filterResident, ofmapResident bool
	switch df {
	case config.OutputStationary:
		// A row-slice (tileR×K) is re-used across the column folds;
		// the B column-slice (K×tileC) across the row folds, but the
		// whole filter must stay put between its uses.
		ifmapResident = fits(int64(r)*K, opts.IfmapSRAMWords)
		filterResident = fits(int64(kEff)*N, opts.FilterSRAMWords)
	case config.WeightStationary:
		// The ifmap slice of one contraction fold (M×denseTile) is
		// re-used across the consecutive column folds; partial sums
		// accumulate across the outer contraction folds, so the whole
		// output must stay resident to avoid spills.
		ifmapResident = fits(M*ceil64(K, int64(fr)), opts.IfmapSRAMWords)
		ofmapResident = fits(M*N, opts.OfmapSRAMWords)
	case config.InputStationary:
		// The filter row-slice (tileR×N) is re-used across the column
		// folds; as for WS, partial sums span the whole output.
		filterResident = fits(int64(r)*N, opts.FilterSRAMWords)
		ofmapResident = fits(M*N, opts.OfmapSRAMWords)
	}

	// The one fold handed to every visit, over fixed span storage: at most
	// one stationary, two stream and one write span per fold.
	var st struct {
		fold  Fold
		spans [4]Span
	}
	f := &st.fold
	f.ComputeCycles = fs.PerFold
	f.StreamCycles = int64(fs.Map.T)

	// When the filter is compressed, the folds tile the compressed
	// contraction dimension, but the dense ifmap words backing each fold
	// must still be fetched: denseK words of ifmap per compressed fold row.
	for i := 0; i < fr; i++ {
		rowOff := int64(i * r)
		// Dense contraction slice backing this compressed fold.
		denseLo := int64(i) * K / int64(fr)
		denseHi := int64(i+1) * K / int64(fr)
		denseTile := denseHi - denseLo
		if denseTile < 1 {
			denseTile = 1
		}
		for j := 0; j < fs.FoldsC; j++ {
			tR, tC := fs.Tile(i, j)
			tileR, tileC := int64(tR), int64(tC)
			colOff := int64(j * c)
			f.Stationary = st.spans[0:0:1]
			f.Stream = st.spans[1:1:3]
			f.Writes = st.spans[3:3:4]
			switch df {
			case config.OutputStationary:
				// Streams A rows (dense) and B columns (compressed);
				// outputs drain once. Resident slices are served from
				// SRAM on re-use and fetched only the first time.
				if j == 0 || !ifmapResident {
					f.Stream = append(f.Stream, Span{Base: systolic.IfmapBase + rowOff*K,
						Rows: tileR, RowWords: K, RowStride: K})
				}
				if i == 0 || !filterResident {
					f.Stream = append(f.Stream, Span{Base: systolic.FilterBase + colOff,
						Rows: int64(kEff), RowWords: tileC, RowStride: N})
				}
				f.Writes = append(f.Writes, Span{Base: systolic.OfmapBase + rowOff*N + colOff,
					Rows: tileR, RowWords: tileC, RowStride: N})
			case config.WeightStationary:
				// Pins the (compressed) filter tile; streams the dense
				// ifmap columns backing it; spills partial sums every
				// contraction fold unless they stay resident.
				f.Stationary = append(f.Stationary, Span{Base: systolic.FilterBase + rowOff*N + colOff,
					Rows: tileR, RowWords: tileC, RowStride: N})
				if j == 0 || !ifmapResident {
					f.Stream = append(f.Stream, Span{Base: systolic.IfmapBase + denseLo,
						Rows: M, RowWords: denseTile, RowStride: K})
				}
				if i == fr-1 || !ofmapResident {
					f.Writes = append(f.Writes, Span{Base: systolic.OfmapBase + colOff,
						Rows: M, RowWords: tileC, RowStride: N})
				}
			case config.InputStationary:
				// Pins the (transposed) input tile; streams filter rows.
				f.Stationary = append(f.Stationary, Span{Base: systolic.IfmapBase + colOff*K + denseLo,
					Rows: tileC, RowWords: denseTile, RowStride: K})
				if j == 0 || !filterResident {
					f.Stream = append(f.Stream, Span{Base: systolic.FilterBase + rowOff*N,
						Rows: tileR, RowWords: N, RowStride: N})
				}
				if i == fr-1 || !ofmapResident {
					f.Writes = append(f.Writes, Span{Base: systolic.OfmapBase + colOff*N,
						Rows: tileC, RowWords: N, RowStride: N})
				}
			}
			// Pace consumption to the fetched volume over the
			// streaming phase.
			f.ConsumeRate = ceil64(f.StreamWords(), f.StreamCycles)
			visit(f)
		}
	}
	return nil
}

func ceil64(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
