package systolic

import (
	"fmt"
	"slices"

	"scalesim/internal/config"
)

// Operand identifies one GEMM tensor in the demand stream.
type Operand uint8

const (
	OperandIfmap Operand = iota
	OperandFilter
	OperandOfmap
)

// String names the operand for diagnostics.
func (op Operand) String() string {
	switch op {
	case OperandIfmap:
		return "ifmap"
	case OperandFilter:
		return "filter"
	case OperandOfmap:
		return "ofmap"
	default:
		return fmt.Sprintf("operand(%d)", uint8(op))
	}
}

// AddressBase returns the operand's region base in the word address space.
func (op Operand) AddressBase() int64 {
	switch op {
	case OperandIfmap:
		return IfmapBase
	case OperandFilter:
		return FilterBase
	default:
		return OfmapBase
	}
}

// OperandDims returns the logical (rows, cols) of the operand's matrix for
// the GEMM O(M×N) = A(M×K) · B(K×N).
func OperandDims(op Operand, g Gemm) (rows, cols int) {
	switch op {
	case OperandIfmap:
		return g.M, g.K
	case OperandFilter:
		return g.K, g.N
	default:
		return g.M, g.N
	}
}

// PatternPhase places a pattern in its fold's pipeline phase, fixing the
// emission order Materialize must reproduce.
type PatternPhase uint8

const (
	// PhaseFill is the stationary-operand fill (WS/IS), one tile row per
	// cycle.
	PhaseFill PatternPhase = iota
	// PhaseStream is the streaming-read phase, one temporal step per cycle.
	PhaseStream
	// PhaseOutput is the WS/IS output drain interleaved with the stream,
	// offset by the array traversal latency and clamped to the fold end.
	PhaseOutput
	// PhaseDrain is the OS output drain over the fold's last tile rows.
	PhaseDrain
)

// Pattern is a closed-form run of per-cycle access groups: Steps consecutive
// cycles, each demanding Count elements of one operand. The element at
// position e of step s sits at matrix coordinate
//
//	row = Row0 + e·RowPerElem + s·RowPerStep
//	col = Col0 + e·ColPerElem + s·ColPerStep
//
// of the operand's logical (row-major) matrix. All coefficients are
// non-negative, so address ranges are closed-form too. The demanded cycle of
// step s is min(StartCycle+s, ClampCycle) — the clamp models WS/IS outputs
// whose drain latency would spill past the fold boundary.
type Pattern struct {
	Operand Operand
	Phase   PatternPhase
	// ReadBack marks output groups that also read partial sums back
	// (contraction folds after the first for WS/IS).
	ReadBack bool

	StartCycle int64
	ClampCycle int64
	Steps      int
	Count      int

	Row0, Col0             int
	RowPerElem, ColPerElem int
	RowPerStep, ColPerStep int
}

// Cycle returns the demand cycle of step s.
func (p *Pattern) Cycle(s int) int64 {
	c := p.StartCycle + int64(s)
	if c > p.ClampCycle {
		return p.ClampCycle
	}
	return c
}

// Addr returns the absolute word address of element e at step s.
func (p *Pattern) Addr(e, s int, g Gemm) int64 {
	_, cols := OperandDims(p.Operand, g)
	row := int64(p.Row0) + int64(e)*int64(p.RowPerElem) + int64(s)*int64(p.RowPerStep)
	col := int64(p.Col0) + int64(e)*int64(p.ColPerElem) + int64(s)*int64(p.ColPerStep)
	return p.Operand.AddressBase() + row*int64(cols) + col
}

// Volume is the pattern's total element demand (Steps × Count), counting the
// write and the read-back of a ReadBack pattern once each.
func (p *Pattern) Volume() int64 {
	return int64(p.Steps) * int64(p.Count)
}

// FoldInfo is the closed-form description of one fold: placement, tile
// dims, cycle span and per-operand access patterns in emission order.
type FoldInfo struct {
	// Index is the fold's linear position (row-major over FoldsR×FoldsC).
	Index int
	// TileR, TileC are the live tile dims on the array.
	TileR, TileC int
	// StartCycle is the fold's first cycle; the fold spans Cycles cycles.
	StartCycle int64
	Cycles     int64
	// Patterns lists the fold's demand in emission order (fill, stream,
	// output/drain). The slice's backing array is reused across
	// ForEachFold iterations; copy it to retain.
	Patterns []Pattern
}

// Volumes tallies the fold's element demand per channel, counting a
// read-back output group once as writes and once as reads.
func (f *FoldInfo) Volumes() (ifmapReads, filterReads, ofmapWrites, ofmapReads int64) {
	for i := range f.Patterns {
		p := &f.Patterns[i]
		switch p.Operand {
		case OperandIfmap:
			ifmapReads += p.Volume()
		case OperandFilter:
			filterReads += p.Volume()
		case OperandOfmap:
			ofmapWrites += p.Volume()
			if p.ReadBack {
				ofmapReads += p.Volume()
			}
		}
	}
	return
}

// FoldSchedule is the closed-form demand schedule of a GEMM on an R×C array:
// its folds, cycles and address patterns, derived in O(folds) instead of
// O(cycles × elements). It is the one fold walk: Stats, the layout stage
// and the memory schedule read it, and Materialize expands it into the
// per-cycle demand behind the SRAM traces.
type FoldSchedule struct {
	Dataflow config.Dataflow
	R, C     int
	G        Gemm
	Map      Mapping
	FoldsR   int
	FoldsC   int
	// PerFold is the pipeline length of one fold: 2R + C + T − 2.
	PerFold int64
}

// NewFoldSchedule validates the request and computes the fold decomposition.
// It stays small enough to inline, so a caller that does not keep the
// schedule (the memory fold walk) holds it on its stack.
func NewFoldSchedule(df config.Dataflow, r, c int, g Gemm) (s *FoldSchedule, err error) {
	s = new(FoldSchedule)
	if err = s.set(df, r, c, g); err != nil {
		s = nil
	}
	return s, err
}

func (s *FoldSchedule) set(df config.Dataflow, r, c int, g Gemm) error {
	if r <= 0 || c <= 0 {
		return fmt.Errorf("systolic: non-positive array %dx%d", r, c)
	}
	if g.M <= 0 || g.N <= 0 || g.K <= 0 {
		return fmt.Errorf("systolic: non-positive GEMM %+v", g)
	}
	mp := MappingFor(df, g.M, g.N, g.K)
	*s = FoldSchedule{
		Dataflow: df, R: r, C: c, G: g, Map: mp,
		FoldsR:  CeilDiv(mp.Sr, r),
		FoldsC:  CeilDiv(mp.Sc, c),
		PerFold: FoldCycles(r, c, mp.T),
	}
	return nil
}

// NumFolds is the fold count (FoldsR × FoldsC).
func (s *FoldSchedule) NumFolds() int { return s.FoldsR * s.FoldsC }

// TotalCycles is the schedule's span — identical to the per-cycle stream's
// last demanded cycle + 1 and to Estimate(...).ComputeCycles.
func (s *FoldSchedule) TotalCycles() int64 {
	return s.PerFold * int64(s.NumFolds())
}

// Tile returns the live tile dims of fold (i, j): the array, clipped by the
// mapping's extent on the last row and column folds.
func (s *FoldSchedule) Tile(i, j int) (tileR, tileC int) {
	return min(s.R, s.Map.Sr-i*s.R), min(s.C, s.Map.Sc-j*s.C)
}

// Fold fills f with fold idx's closed-form description, reusing
// f.Patterns' backing array.
func (s *FoldSchedule) Fold(idx int, f *FoldInfo) {
	i := idx / s.FoldsC
	j := idx % s.FoldsC
	tileR, tileC := s.Tile(i, j)
	base := int64(idx) * s.PerFold
	rowOff := i * s.R
	colOff := j * s.C
	t := s.Map.T
	foldEnd := base + s.PerFold - 1

	f.Index = idx
	f.TileR, f.TileC = tileR, tileC
	f.StartCycle = base
	f.Cycles = s.PerFold
	f.Patterns = f.Patterns[:0]

	add := func(p Pattern) { f.Patterns = append(f.Patterns, p) }
	streamStart := base + int64(s.R)

	switch s.Dataflow {
	case config.OutputStationary:
		// Stream phase: row i reads A[rowOff+i, step], column j reads
		// B[step, colOff+j]; the output tile drains over the last TileR
		// cycles.
		add(Pattern{Operand: OperandIfmap, Phase: PhaseStream,
			StartCycle: streamStart, ClampCycle: streamStart + int64(t) - 1,
			Steps: t, Count: tileR,
			Row0: rowOff, RowPerElem: 1, ColPerStep: 1})
		add(Pattern{Operand: OperandFilter, Phase: PhaseStream,
			StartCycle: streamStart, ClampCycle: streamStart + int64(t) - 1,
			Steps: t, Count: tileC,
			Col0: colOff, ColPerElem: 1, RowPerStep: 1})
		drainStart := base + s.PerFold - int64(tileR)
		add(Pattern{Operand: OperandOfmap, Phase: PhaseDrain,
			StartCycle: drainStart, ClampCycle: drainStart + int64(tileR) - 1,
			Steps: tileR, Count: tileC,
			Row0: rowOff, Col0: colOff, RowPerStep: 1, ColPerElem: 1})
	case config.WeightStationary:
		// Fill pins B[rowOff+i, colOff+j]; the stream reads A[step,
		// rowOff+i]; outputs O[step, colOff+j] exit the column bottoms
		// after the full array traversal, clamped inside the fold.
		add(Pattern{Operand: OperandFilter, Phase: PhaseFill,
			StartCycle: base, ClampCycle: base + int64(tileR) - 1,
			Steps: tileR, Count: tileC,
			Row0: rowOff, Col0: colOff, RowPerStep: 1, ColPerElem: 1})
		add(Pattern{Operand: OperandIfmap, Phase: PhaseStream,
			StartCycle: streamStart, ClampCycle: streamStart + int64(t) - 1,
			Steps: t, Count: tileR,
			Col0: rowOff, ColPerElem: 1, RowPerStep: 1})
		add(Pattern{Operand: OperandOfmap, Phase: PhaseOutput, ReadBack: i > 0,
			StartCycle: streamStart + int64(s.R+s.C-1), ClampCycle: foldEnd,
			Steps: t, Count: tileC,
			Col0: colOff, ColPerElem: 1, RowPerStep: 1})
	case config.InputStationary:
		// Fill pins A[colOff+j, rowOff+i]; the stream reads B[rowOff+i,
		// step]; outputs O[colOff+j, step] drain like WS.
		add(Pattern{Operand: OperandIfmap, Phase: PhaseFill,
			StartCycle: base, ClampCycle: base + int64(tileR) - 1,
			Steps: tileR, Count: tileC,
			Row0: colOff, RowPerElem: 1, Col0: rowOff, ColPerStep: 1})
		add(Pattern{Operand: OperandFilter, Phase: PhaseStream,
			StartCycle: streamStart, ClampCycle: streamStart + int64(t) - 1,
			Steps: t, Count: tileR,
			Row0: rowOff, RowPerElem: 1, ColPerStep: 1})
		add(Pattern{Operand: OperandOfmap, Phase: PhaseOutput, ReadBack: i > 0,
			StartCycle: streamStart + int64(s.R+s.C-1), ClampCycle: foldEnd,
			Steps: t, Count: tileC,
			Row0: colOff, RowPerElem: 1, ColPerStep: 1})
	default:
		panic(fmt.Sprintf("systolic: unknown dataflow %v", s.Dataflow))
	}
}

// ForEachFold visits the folds in schedule order with a reused FoldInfo.
// Returning false stops the walk.
func (s *FoldSchedule) ForEachFold(fn func(*FoldInfo) bool) {
	var f FoldInfo
	n := s.NumFolds()
	for idx := 0; idx < n; idx++ {
		s.Fold(idx, &f)
		if !fn(&f) {
			return
		}
	}
}

// Stats tallies the schedule's demand closed-form. The differential tests
// hold it equal to a tally of the per-cycle oracle's emissions
// (simtest.CollectStats) across the dataflow × shape grid.
func (s *FoldSchedule) Stats() StreamStats {
	st := StreamStats{Cycles: s.TotalCycles()}
	s.ForEachFold(func(f *FoldInfo) bool {
		ir, fr, ow, or := f.Volumes()
		st.IfmapReads += ir
		st.FilterReads += fr
		st.OfmapWrites += ow
		st.OfmapReads += or
		// Peak is per emission, as Materialize emits: fill and drain
		// emissions carry one pattern; stream emissions merge the fold's
		// stream patterns; output emissions count the read-back too.
		var stream int
		for i := range f.Patterns {
			p := &f.Patterns[i]
			per := p.Count
			switch p.Phase {
			case PhaseStream:
				stream += p.Count
				continue
			case PhaseOutput:
				if p.ReadBack {
					per *= 2
				}
			}
			if per > st.PeakPerCycle {
				st.PeakPerCycle = per
			}
		}
		if stream > st.PeakPerCycle {
			st.PeakPerCycle = stream
		}
		return true
	})
	return st
}

// Materialize expands the schedule into its per-cycle demand, invoking fn
// once per cycle that has at least one access, in cycle order; returning
// false stops it. The last demanded cycle is TotalCycles() − 1. Within each
// fold of length 2R+C+T−2:
//
//	cycles [0, R):          stationary-operand fill, one tile row per cycle
//	cycles [R, R+T):        streaming reads (skewless edge feed)
//	cycles [R+T, fold end): pipeline drain; outputs of OS folds emit here
//
// For WS/IS, outputs stream out one tile-column batch per cycle during the
// streaming phase, offset by the array traversal latency and clamped to the
// fold's last cycle; each batch is emitted right after the stream cycle that
// fed it.
func (s *FoldSchedule) Materialize(fn DemandFunc) {
	d := demandPool.Get().(*Demand)
	defer demandPool.Put(d)
	s.ForEachFold(func(f *FoldInfo) bool { return materializeFold(f, s.G, d, fn) })
}

// materializeFold emits one fold. Returns false if the consumer stopped.
// Every pattern demands at least one element per step (tiles and T are
// positive), so every emission is non-empty.
func materializeFold(f *FoldInfo, g Gemm, d *Demand, fn DemandFunc) bool {
	var fill, output, drain cursor
	var stream [2]cursor
	ns := 0
	for i := range f.Patterns {
		p := &f.Patterns[i]
		switch p.Phase {
		case PhaseFill:
			fill = p.cursor(g)
		case PhaseStream:
			stream[ns] = p.cursor(g)
			ns++
		case PhaseOutput:
			output = p.cursor(g)
		case PhaseDrain:
			drain = p.cursor(g)
		}
	}
	steps := func(c *cursor) bool {
		for step := 0; c.p != nil && step < c.p.Steps; step++ {
			d.reset(c.p.Cycle(step))
			c.appendStep(d, step)
			if !fn(d) {
				return false
			}
		}
		return true
	}
	if !steps(&fill) {
		return false
	}
	for step := 0; step < stream[0].p.Steps; step++ {
		d.reset(stream[0].p.Cycle(step))
		for i := range ns {
			stream[i].appendStep(d, step)
		}
		if !fn(d) {
			return false
		}
		if output.p != nil {
			d.reset(output.p.Cycle(step))
			output.appendStep(d, step)
			if !fn(d) {
				return false
			}
		}
	}
	return steps(&drain)
}

// cursor walks a pattern's addresses incrementally: element e of step s
// sits at first + s·step + e·elem.
type cursor struct {
	p                 *Pattern
	first, step, elem int64
}

func (p *Pattern) cursor(g Gemm) cursor {
	_, cols := OperandDims(p.Operand, g)
	return cursor{p: p, first: p.Addr(0, 0, g),
		step: int64(p.RowPerStep)*int64(cols) + int64(p.ColPerStep),
		elem: int64(p.RowPerElem)*int64(cols) + int64(p.ColPerElem)}
}

// appendStep appends step s of the pattern to its operand's channel in
// element order; a read-back output group repeats its writes as reads.
func (c *cursor) appendStep(d *Demand, s int) {
	dst := &d.OfmapWrites
	switch c.p.Operand {
	case OperandIfmap:
		dst = &d.IfmapReads
	case OperandFilter:
		dst = &d.FilterReads
	}
	n := len(*dst)
	buf := slices.Grow(*dst, c.p.Count)[:n+c.p.Count]
	addr := c.first + int64(s)*c.step
	for e := n; e < len(buf); e++ {
		buf[e] = addr
		addr += c.elem
	}
	*dst = buf
	if c.p.ReadBack {
		d.OfmapReads = append(d.OfmapReads, buf[n:]...)
	}
}
