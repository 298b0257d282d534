package sram

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/systolic"
)

func newDDR4(t *testing.T, channels, queue int) *dram.System {
	t.Helper()
	sys, err := dram.New(dram.DDR4_2400(), dram.Options{
		Channels: channels, QueueDepth: queue, DisableRefresh: true,
	})
	if err != nil {
		t.Fatalf("dram.New: %v", err)
	}
	return sys
}

func TestBuildScheduleVolumes(t *testing.T) {
	g := systolic.Gemm{M: 100, N: 60, K: 80}
	for _, df := range config.Dataflows() {
		sched, err := BuildSchedule(df, 16, 16, g, ScheduleOptions{})
		if err != nil {
			t.Fatalf("%v: %v", df, err)
		}
		est := systolic.Estimate(df, 16, 16, g.M, g.N, g.K)
		if got := sched.ComputeCycles(); got != est.ComputeCycles {
			t.Errorf("%v: schedule cycles %d != estimate %d", df, got, est.ComputeCycles)
		}
		// Reads must cover at least one copy of each input operand and
		// writes at least one copy of the output.
		minReads := int64(g.M * g.K) // ifmap appears at least once
		if sched.ReadWords() < minReads {
			t.Errorf("%v: read words %d < %d", df, sched.ReadWords(), minReads)
		}
		if w := sched.WriteWords(); w < int64(g.M*g.N) {
			t.Errorf("%v: write words %d < output size %d", df, w, g.M*g.N)
		}
	}
}

// Lines appends the 64-byte-line addresses covering the span (byte
// addresses, line-aligned) to dst and returns it. wordBytes is the operand
// word size; lineBytes the request granularity. It is the reference the
// replay's lineCursor and LineCount are checked against.
func (s Span) Lines(dst []int64, wordBytes, lineBytes int64) []int64 {
	if wordBytes <= 0 {
		wordBytes = 4
	}
	if lineBytes <= 0 {
		lineBytes = 64
	}
	if s.RowWords <= 0 {
		return dst // empty rows cover no line
	}
	var prev int64 = -1
	for r := int64(0); r < s.Rows; r++ {
		lo := (s.Base + r*s.RowStride) * wordBytes / lineBytes
		hi := ((s.Base+r*s.RowStride+s.RowWords)*wordBytes - 1) / lineBytes
		for l := lo; l <= hi; l++ {
			if l == prev { // adjacent rows may share a boundary line
				continue
			}
			dst = append(dst, l*lineBytes)
			prev = l
		}
	}
	return dst
}

func TestSpanLines(t *testing.T) {
	// 16-word rows at stride 100: each row covers one line when aligned
	// (row 0) and straddles two lines when not, so 4 rows need 4–8 lines.
	sp := Span{Base: 0, Rows: 4, RowWords: 16, RowStride: 100}
	lines := sp.Lines(nil, 4, 64)
	if len(lines) < 4 || len(lines) > 8 {
		t.Fatalf("got %d lines, want between 4 and 8", len(lines))
	}
	// Aligned rows: exactly one line each.
	sp = Span{Base: 0, Rows: 4, RowWords: 16, RowStride: 128}
	if lines = sp.Lines(nil, 4, 64); len(lines) != 4 {
		t.Fatalf("aligned: got %d lines, want 4", len(lines))
	}
	// Contiguous span: 64 words × 4B = 256 B = 4 lines.
	sp = Span{Base: 0, Rows: 1, RowWords: 64, RowStride: 64}
	lines = sp.Lines(nil, 4, 64)
	if len(lines) != 4 {
		t.Fatalf("contiguous: got %d lines, want 4", len(lines))
	}
}

func TestSimulateTerminatesAndStalls(t *testing.T) {
	g := systolic.Gemm{M: 200, N: 64, K: 96}
	sched, err := BuildSchedule(config.WeightStationary, 16, 16, g, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys := newDDR4(t, 1, 32)
	res, err := Simulate(sched, sys, Options{MaxRequestsPerCycle: 1, StreamWindowWords: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles < res.ComputeCycles {
		t.Errorf("total %d < compute %d", res.TotalCycles, res.ComputeCycles)
	}
	if res.DRAM.Reads == 0 || res.DRAM.Writes == 0 {
		t.Errorf("no DRAM traffic recorded: %+v", res.DRAM)
	}
	if res.ReadWords < int64(g.M*g.K) {
		t.Errorf("read words %d too small", res.ReadWords)
	}
}

func TestSimulateLargerQueueNoSlower(t *testing.T) {
	g := systolic.Gemm{M: 300, N: 96, K: 128}
	var prev int64 = 1 << 62
	for _, q := range []int{8, 64, 256} {
		sched, err := BuildSchedule(config.OutputStationary, 16, 16, g, ScheduleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sys := newDDR4(t, 2, q)
		res, err := Simulate(sched, sys, Options{MaxRequestsPerCycle: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Allow small non-monotonic noise from scheduling artifacts.
		if res.TotalCycles > prev+prev/10 {
			t.Errorf("queue %d: cycles %d much worse than smaller queue (%d)", q, res.TotalCycles, prev)
		}
		prev = res.TotalCycles
	}
}

func TestSimulateMoreChannelsMoreThroughput(t *testing.T) {
	g := systolic.Gemm{M: 400, N: 128, K: 256}
	var prev float64
	for _, ch := range []int{1, 4} {
		sched, err := BuildSchedule(config.WeightStationary, 32, 32, g, ScheduleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sys := newDDR4(t, ch, 128)
		res, err := Simulate(sched, sys, Options{MaxRequestsPerCycle: 4})
		if err != nil {
			t.Fatal(err)
		}
		if ch > 1 && res.ThroughputMBps < prev {
			t.Errorf("channels %d: throughput %.1f < single-channel %.1f", ch, res.ThroughputMBps, prev)
		}
		prev = res.ThroughputMBps
	}
}

// allocSchedule hand-builds a schedule of `folds` folds whose stationary,
// stream and write groups each cover about `lines` DRAM lines (contiguous,
// straddling and strided spans, so the line count is not just words/16).
func allocSchedule(folds int, lines int64) *Schedule {
	sched := &Schedule{Dataflow: config.WeightStationary}
	for i := 0; i < folds; i++ {
		base := int64(i) * lines * 64
		f := Fold{
			Stationary: []Span{{Base: base, Rows: 1, RowWords: lines * 16, RowStride: lines * 16}},
			Stream: []Span{
				{Base: 1<<32 + base, Rows: lines / 4, RowWords: 24, RowStride: 40},
				{Base: 1<<33 + base + 5, Rows: lines / 4, RowWords: 24, RowStride: 24},
			},
			Writes:       []Span{{Base: 1<<34 + base + 3, Rows: lines / 2, RowWords: 20, RowStride: 100}},
			StreamCycles: lines / 2,
			ConsumeRate:  24,
		}
		f.ComputeCycles = f.StreamCycles + 64
		sched.Folds = append(sched.Folds, f)
	}
	return sched
}

// TestSimulateAllocsIndependentOfLines pins the replay's streaming: it
// holds the requests in flight, not the schedule's lines, so 8x the lines
// per fold costs neither more bytes (beyond a fixed slack) nor more
// allocations. An attached sink adds the reorder ring, which holds the
// requests that retire ahead of their turn in trace order: a fold's paced
// writes wait for its last stream line, so the ring follows the lines of
// one fold, and 8x the folds of a given size costs nothing more.
func TestSimulateAllocsIndependentOfLines(t *testing.T) {
	// MemStats counts the whole process, so an allocation elsewhere during
	// the measured call can only add to a delta: the minimum of a few
	// replays is the replay's own cost.
	measure := func(folds int, lines int64, sink func(dram.Request)) (bytes, mallocs uint64) {
		sched := allocSchedule(folds, lines)
		bytes, mallocs = math.MaxUint64, math.MaxUint64
		for range 3 {
			sys := newDDR4(t, 2, 64)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Simulate(sched, sys, Options{MaxRequestsPerCycle: 4, Sink: sink})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.ReadRequests+res.WriteRequests == 0 {
				t.Fatal("replay issued no requests")
			}
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		}
		return bytes, mallocs
	}
	check := func(name string, bytes, mallocs, bigBytes, bigMallocs uint64) {
		t.Logf("%s: %d B in %d allocations, %d B in %d at 8x", name, bytes, mallocs, bigBytes, bigMallocs)
		if bigBytes > bytes+64<<10 {
			t.Errorf("%s: %d bytes, %d at 8x", name, bytes, bigBytes)
		}
		if bigMallocs > mallocs {
			t.Errorf("%s: %d allocations, %d at 8x", name, mallocs, bigMallocs)
		}
	}
	for _, folds := range []int{1, 8} {
		bytes, mallocs := measure(folds, 10_000, nil)
		bigBytes, bigMallocs := measure(folds, 80_000, nil)
		check(fmt.Sprintf("%d folds, 10k lines per fold", folds), bytes, mallocs, bigBytes, bigMallocs)
	}
	sink := func(dram.Request) {}
	bytes, mallocs := measure(8, 1_000, sink)
	bigBytes, bigMallocs := measure(64, 1_000, sink)
	check("sink, 8 folds of 1k lines", bytes, mallocs, bigBytes, bigMallocs)
}

// TestLineCursorMatchesLines checks the replay's line walk against the
// reference Span.Lines on the schedule shapes that stress it: rows that
// share, straddle and overlap boundary lines, empty and negative spans.
func TestLineCursorMatchesLines(t *testing.T) {
	groups := [][]Span{
		{{Base: 0, Rows: 4, RowWords: 16, RowStride: 100}, {Base: 3, Rows: 9, RowWords: 5, RowStride: 7}},
		{{Base: 5, Rows: 6, RowWords: 40, RowStride: 24}, {Rows: 3}, {Base: 64, Rows: 1, RowWords: 1}},
		{{Base: 100, Rows: 5, RowWords: 3, RowStride: -20}, {Base: 0, Rows: 0, RowWords: 8}},
	}
	for _, f := range allocSchedule(2, 64).Folds {
		groups = append(groups, f.Stationary, f.Stream, f.Writes)
	}
	for gi, spans := range groups {
		var want []int64
		for _, sp := range spans {
			want = sp.Lines(want, 4, 64)
		}
		c := lineCursor{spans: spans, wb: 4, lb: 64, hi: -1, n: spanLines(spans, 4, 64)}
		var got []int64
		for ; c.i < c.n; c.next() {
			got = append(got, c.addr())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("group %d: cursor walks %v, Span.Lines lists %v", gi, got, want)
		}
	}
}

// traceOrder lists the schedule's transactions in trace order — fold by
// fold, each fold's stationary, stream, then write lines — with zero
// Arrive and Done.
func traceOrder(sched *Schedule) []dram.Request {
	var order []dram.Request
	for _, f := range sched.Folds {
		for gi, spans := range [][]Span{f.Stationary, f.Stream, f.Writes} {
			for _, sp := range spans {
				for _, a := range sp.Lines(nil, 4, 64) {
					order = append(order, dram.Request{Addr: a, Write: gi == 2})
				}
			}
		}
	}
	return order
}

// TestTraceOrderIsFoldOrder pins the order the Sink (and so every
// _dram_trace.csv) receives transactions in: fold by fold, each fold's
// stationary, stream, then write lines — not issue order. Fold 1's reads
// are prefetched while fold 0 computes, so they issue before fold 0's
// paced write, yet follow it in the trace.
func TestTraceOrderIsFoldOrder(t *testing.T) {
	fold := func(i int64) Fold {
		return Fold{
			Stationary:    []Span{{Base: i * 32, Rows: 1, RowWords: 32, RowStride: 32}},
			Stream:        []Span{{Base: 1<<20 + i*48, Rows: 1, RowWords: 48, RowStride: 48}},
			Writes:        []Span{{Base: 1<<22 + i*16, Rows: 1, RowWords: 16, RowStride: 16}},
			ComputeCycles: 40, StreamCycles: 6, ConsumeRate: 8,
		}
	}
	sched := &Schedule{Dataflow: config.WeightStationary, Folds: []Fold{fold(0), fold(1)}}
	var got []dram.Request
	sink := func(r dram.Request) { got = append(got, r) }
	if _, err := Simulate(sched, newDDR4(t, 1, 8), Options{MaxRequestsPerCycle: 1, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	want := traceOrder(sched)
	// Arrive/Done of each entry, as the array-backed replay recorded them.
	times := [][2]int64{
		{0, 39}, {1, 45}, {2, 100}, {3, 106}, {4, 112}, {114, 152},
		{5, 51}, {6, 57}, {7, 118}, {18, 124}, {24, 130}, {154, 158},
	}
	if len(got) != len(want) || len(times) != len(want) {
		t.Fatalf("trace has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		want[i].Arrive, want[i].Done = times[i][0], times[i][1]
	}
	for i, e := range got {
		if e != want[i] {
			t.Errorf("entry %d: %+v, want %+v", i, e, want[i])
		}
	}
	// Fold 0's write (entry 5) issues after fold 1's first read (entry 6).
	if w, r := got[5], got[6]; !w.Write || r.Write || r.Arrive >= w.Arrive {
		t.Errorf("fold 1's first read (%+v) does not issue before fold 0's write (%+v)", r, w)
	}
}
