package layout

// Closed-form bank-conflict analysis. A per-cycle replay feeds every
// demand group through Observe; the fold schedule describes the same
// groups as arithmetic runs (base + e·stride within a group, base advancing
// by delta per step), and a group's cycle cost depends only on
// (base mod lineWidth, stride, count) — shifting every address of a group by
// a whole line moves each touched (bank, line) pair to (bank, line+1) and
// changes nothing the max-over-banks model counts. Residues of an arithmetic
// base walk repeat with period lineWidth/gcd(delta, lineWidth), so a run of
// Steps groups costs full·Σperiod + Σremainder with at most lineWidth
// distinct group evaluations, memoized per (stride, count). The per-cycle
// replay is retained as the differential-test oracle.

import (
	"scalesim/internal/config"
	"scalesim/internal/systolic"
)

// AccessRun is a closed-form run of parallel access groups: Steps groups,
// each demanding the Count operand-local storage addresses
// Base + s·Delta + e·Stride for e in [0, Count).
type AccessRun struct {
	Base   int64
	Stride int64
	Delta  int64
	Count  int
	Steps  int
}

// runKey memoizes group cycles per (stride, count); the base residue indexes
// the cached slice.
type runKey struct {
	stride int64
	count  int
}

// ObserveRun records Steps access groups under both models, byte-identical
// to calling Observe once per step with the expanded addresses.
func (a *Analyzer) ObserveRun(run AccessRun) {
	if run.Count <= 0 || run.Steps <= 0 {
		return
	}
	steps := int64(run.Steps)
	a.BaselineCycles += a.baseline(run.Count) * steps
	a.Groups += steps

	lineWidth := int64(a.cfg.BandwidthPerBank() * a.cfg.Banks)
	delta := ((run.Delta % lineWidth) + lineWidth) % lineWidth
	base := ((run.Base % lineWidth) + lineWidth) % lineWidth
	period := int64(1)
	if delta != 0 {
		period = lineWidth / gcd64(delta, lineWidth)
	}
	full := steps / period
	rem := steps % period
	limit := rem
	if full > 0 {
		limit = period
	}
	memo := a.memoFor(run.Stride, run.Count, lineWidth)
	var perSum, remSum, perConf, remConf int64
	b := base
	for s := int64(0); s < limit; s++ {
		cyc := a.runGroupCycles(memo, b, run.Stride, run.Count, lineWidth)
		perSum += cyc
		if cyc > 1 {
			perConf++
		}
		if s < rem {
			remSum += cyc
			if cyc > 1 {
				remConf++
			}
		}
		b += delta
		if b >= lineWidth {
			b -= lineWidth
		}
	}
	a.LayoutCycles += full*perSum + remSum
	a.ConflictEvents += full*perConf + remConf
}

// memoFor returns the cached group-cycle slice for (stride, count), indexed
// by base residue; 0 marks an unevaluated residue (real costs are ≥ 1). The
// memo is a pure function of the configuration, so Reset keeps it.
func (a *Analyzer) memoFor(stride int64, count int, lineWidth int64) []int64 {
	k := runKey{stride, count}
	if m, ok := a.runMemo[k]; ok {
		return m
	}
	if a.runMemo == nil {
		a.runMemo = make(map[runKey][]int64)
	}
	m := make([]int64, lineWidth)
	a.runMemo[k] = m
	return m
}

// runGroupCycles evaluates (or recalls) the layout cost of one group whose
// addresses are baseMod + i·stride.
func (a *Analyzer) runGroupCycles(memo []int64, baseMod, stride int64, count int, lineWidth int64) int64 {
	if c := memo[baseMod]; c != 0 {
		return c
	}
	base := baseMod
	if stride < 0 {
		// Shift the whole group by lines to keep addresses non-negative;
		// the cost is invariant under whole-line shifts.
		span := -stride * int64(count-1)
		base += (span + lineWidth - 1) / lineWidth * lineWidth
	}
	a.runBuf = a.runBuf[:0]
	for i := 0; i < count; i++ {
		a.runBuf = append(a.runBuf, base+int64(i)*stride)
	}
	c := a.GroupCycles(a.runBuf)
	memo[baseMod] = c
	return c
}

func gcd64(x, y int64) int64 {
	for y != 0 {
		x, y = y, x%y
	}
	return x
}

// PatternRun linearizes a fold-schedule pattern's matrix-coordinate walk
// into the operand-local storage run the analyzer sees: row-major when
// transposed is false, column-major (Transpose semantics) when true.
func PatternRun(p *systolic.Pattern, g systolic.Gemm, transposed bool) AccessRun {
	rows, cols := systolic.OperandDims(p.Operand, g)
	if transposed {
		return AccessRun{
			Base:   int64(p.Col0)*int64(rows) + int64(p.Row0),
			Stride: int64(p.ColPerElem)*int64(rows) + int64(p.RowPerElem),
			Delta:  int64(p.ColPerStep)*int64(rows) + int64(p.RowPerStep),
			Count:  p.Count,
			Steps:  p.Steps,
		}
	}
	return AccessRun{
		Base:   int64(p.Row0)*int64(cols) + int64(p.Col0),
		Stride: int64(p.RowPerElem)*int64(cols) + int64(p.ColPerElem),
		Delta:  int64(p.RowPerStep)*int64(cols) + int64(p.ColPerStep),
		Count:  p.Count,
		Steps:  p.Steps,
	}
}

// NaturalTransposed reports, per operand, whether the dataflow's natural
// storage order is the transpose of row-major: a layout-aware mapper stores
// each operand the dataflow walks column-wise transposed, so its per-cycle
// access groups are contiguous (OS: the ifmap; WS: none; IS: all three).
func NaturalTransposed(df config.Dataflow) (ifmap, filter, ofmap bool) {
	switch df {
	case config.OutputStationary:
		return true, false, false
	case config.InputStationary:
		return true, true, true
	default:
		return false, false, false
	}
}

// AnalyzeSchedule feeds the closed-form fold schedule through the three
// operand analyzers, producing counters byte-identical to replaying the
// per-cycle stream with the matching transforms through Observe. Natural
// selects the dataflow's stream-natural storage orders (NaturalTransposed);
// false keeps every operand row-major (the naive-layout ablation). Ofmap
// patterns are observed as writes only — partial-sum read-backs revisit the
// same addresses in the same group and are not separately analyzed,
// matching the stage replay.
func AnalyzeSchedule(fs *systolic.FoldSchedule, ifa, fla, ofa *Analyzer, natural bool) {
	var ti, tf, to bool
	if natural {
		ti, tf, to = NaturalTransposed(fs.Dataflow)
	}
	fs.ForEachFold(func(f *systolic.FoldInfo) bool {
		for i := range f.Patterns {
			p := &f.Patterns[i]
			switch p.Operand {
			case systolic.OperandIfmap:
				ifa.ObserveRun(PatternRun(p, fs.G, ti))
			case systolic.OperandFilter:
				fla.ObserveRun(PatternRun(p, fs.G, tf))
			case systolic.OperandOfmap:
				ofa.ObserveRun(PatternRun(p, fs.G, to))
			}
		}
		return true
	})
}

// CombinedSlowdown merges several analyzers' counters into one relative
// slowdown versus the pure-bandwidth baseline.
func CombinedSlowdown(as ...*Analyzer) float64 {
	var lc, bc int64
	for _, a := range as {
		lc += a.LayoutCycles
		bc += a.BaselineCycles
	}
	if bc == 0 {
		return 0
	}
	return float64(lc-bc) / float64(bc)
}
