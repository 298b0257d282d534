package sram

import (
	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/systolic"
)

// Closed-form (Analytical-tier) counterpart of Simulate: the same fold
// sequence, answered with arithmetic instead of replay. Traffic volumes
// and request counts are exact — they are properties of the schedule, not
// of controller timing — and the cycle counts are a proven lower bound on
// what Simulate reports for the same schedule (see the differential tests
// in estimate_test.go and the facade's fidelity suite).

// LineCount returns the number of line-sized transactions covering the
// span — the lines the replay's lineCursor walks (and the tests'
// Span.Lines lists), counted in O(min(Rows, period)) instead of O(lines).
//
// What a row adds (its own lines, minus the boundary line it shares with
// the row before) depends only on where the row starts within a line, and
// that offset repeats every
//
//	period = lineBytes / gcd(RowStride·wordBytes mod lineBytes, lineBytes)
//
// rows (at most 16 with 4-byte words and 64-byte lines). So row 0 and one
// period of rows are counted with the row loop, the period is scaled, and
// the remainder is counted with the row loop again.
func (s Span) LineCount(wordBytes, lineBytes int64) int64 {
	if wordBytes <= 0 {
		wordBytes = 4
	}
	if lineBytes <= 0 {
		lineBytes = 64
	}
	period := lineBytes / gcd(s.RowStride*wordBytes%lineBytes, lineBytes)
	// Truncating division only matches floor for non-negative addresses;
	// anything else, and spans too short to hold a period, take the loop.
	if s.Rows <= period+1 || s.Base < 0 || s.RowStride < 0 {
		return s.lineCountRows(s.Rows, wordBytes, lineBytes)
	}
	perPeriod := s.lineCountRows(period+1, wordBytes, lineBytes) - s.lineCountRows(1, wordBytes, lineBytes)
	periods, tail := (s.Rows-1)/period, (s.Rows-1)%period
	return periods*perPeriod + s.lineCountRows(tail+1, wordBytes, lineBytes)
}

// lineCountRows is LineCount over the span's first `rows` rows, row by
// row with two divisions each: the reference the periodic form is built
// from and tested against.
func (s Span) lineCountRows(rows, wordBytes, lineBytes int64) int64 {
	if s.RowWords <= 0 {
		return 0 // empty rows: Lines() appends nothing
	}
	var n int64
	var prev int64 = -1
	for r := int64(0); r < rows; r++ {
		lo := (s.Base + r*s.RowStride) * wordBytes / lineBytes
		hi := ((s.Base+r*s.RowStride+s.RowWords)*wordBytes - 1) / lineBytes
		cnt := hi - lo + 1
		// Lines() compares each line against the immediately preceding
		// appended one, so across a row boundary only the new row's FIRST
		// line can be skipped (once lo is appended, prev tracks the new
		// row). Overlapping rows re-emit their interior lines; mirror that.
		if r > 0 && prev == lo {
			cnt--
		}
		n += cnt
		prev = hi
	}
	return n
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// traffic accumulates, fold by fold, the schedule totals the Analytical
// result is made of. Estimate feeds it a built Schedule's folds,
// EstimateGemm the fold walk directly.
type traffic struct {
	wordBytes             int64
	computeCycles         int64
	readWords, writeWords int64
	readLines, writeLines int64
}

func newTraffic(opts Options) traffic {
	opts.defaults()
	return traffic{wordBytes: int64(opts.WordBytes)}
}

func (t *traffic) add(f *Fold) {
	t.computeCycles += f.ComputeCycles
	t.readWords += f.StationaryWords() + f.StreamWords()
	t.writeWords += f.WriteWords()
	for _, sp := range f.Stationary {
		t.readLines += sp.LineCount(t.wordBytes, lineBytes)
	}
	for _, sp := range f.Stream {
		t.readLines += sp.LineCount(t.wordBytes, lineBytes)
	}
	for _, sp := range f.Writes {
		t.writeLines += sp.LineCount(t.wordBytes, lineBytes)
	}
}

// result closes the totals into a Result: TotalCycles is the larger of the
// compute time and the read-service bound (MinServiceCycles over the read
// lines).
func (t *traffic) result(tech dram.Tech, channels int) *Result {
	res := &Result{
		ComputeCycles: t.computeCycles,
		ReadWords:     t.readWords,
		WriteWords:    t.writeWords,
		ReadRequests:  t.readLines,
		WriteRequests: t.writeLines,
	}
	res.TotalCycles = res.ComputeCycles
	if bound := dram.MinServiceCycles(tech, channels, t.readLines); bound > res.TotalCycles {
		res.TotalCycles = bound
	}
	res.StallCycles = res.TotalCycles - res.ComputeCycles
	// Bandwidth over the modeled interval at the memory clock, mirroring
	// Simulate's definition with the bound standing in for wall cycles.
	bytes := float64(t.readLines+t.writeLines) * float64(tech.BurstBytes())
	if secs := float64(res.TotalCycles) / (tech.ClockMHz * 1e6); secs > 0 {
		res.ThroughputMBps = bytes / secs / 1e6
	}
	return res
}

// Estimate computes the Analytical-tier memory result for a schedule:
// ComputeCycles straight from the fold structure, exact read/write word
// and line counts, and TotalCycles as the larger of the compute time and
// the read-service bound (MinServiceCycles over the schedule's read
// lines). The result's StallCycles therefore never exceeds the
// event-driven engine's for the same schedule — Analytical screens
// optimistically, it never overstates a design.
//
// Only Options.WordBytes is consulted; the replay tunables (request rate,
// staging window, sink) have no closed-form meaning.
func Estimate(sched *Schedule, tech dram.Tech, channels int, opts Options) *Result {
	t := newTraffic(opts)
	for i := range sched.Folds {
		t.add(&sched.Folds[i])
	}
	return t.result(tech, channels)
}

// EstimateGemm is Estimate(BuildSchedule(df, r, c, g, sopts)) without the
// Schedule: the folds are walked and accumulated, never stored, so the
// cost in memory does not grow with the fold count.
func EstimateGemm(df config.Dataflow, r, c int, g systolic.Gemm, sopts ScheduleOptions, tech dram.Tech, channels int, opts Options) (*Result, error) {
	t := newTraffic(opts)
	if err := walkFolds(df, r, c, g, sopts, t.add); err != nil {
		return nil, err
	}
	return t.result(tech, channels), nil
}
