package sram

import (
	"runtime"
	"testing"
	"unsafe"

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
// stream and write request arrays each cover about `lines` DRAM lines
// (contiguous, straddling and strided spans, so the line count is not just
// words/16). It returns the exact bytes the replay's arrays must hold:
// one dram.Request per line, one cumulative word count per stream line and
// the line-address staging buffer of the largest span group.
func allocSchedule(folds int, lines int64) (*Schedule, int64) {
	sched := &Schedule{Dataflow: config.WeightStationary}
	var total, streamLines, staging int64
	count := func(spans []Span) int64 {
		var n int64
		for _, sp := range spans {
			n += int64(len(sp.Lines(nil, 4, 64)))
		}
		staging = max(staging, n)
		return n
	}
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
		s := count(f.Stream)
		streamLines += s
		total += count(f.Stationary) + s + count(f.Writes)
		sched.Folds = append(sched.Folds, f)
	}
	return sched, total*int64(unsafe.Sizeof(dram.Request{})) + (streamLines+staging)*8
}

// TestSimulateRequestArraysSizedOnce pins the replay's allocation
// behaviour: every per-fold array is allocated at its exact size (no
// append doubling, which costs up to 2x the final size plus every
// intermediate copy), and how many allocations a replay makes does not
// depend on how many lines a fold has.
func TestSimulateRequestArraysSizedOnce(t *testing.T) {
	// What Simulate allocates besides its arrays: the fold table, the
	// result, trace-free controller state.
	const fixed = 64 << 10
	measure := func(folds int, lines int64) (bytes, mallocs uint64, exact int64) {
		sched, exact := allocSchedule(folds, lines)
		sys := newDDR4(t, 2, 64)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Simulate(sched, sys, Options{MaxRequestsPerCycle: 4})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.ReadRequests+res.WriteRequests == 0 {
			t.Fatal("replay issued no requests")
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, exact
	}
	for _, c := range []struct {
		folds  int
		scaled int64 // lines per array of the second, larger replay
	}{{1, 80_000}, {8, 40_000}} {
		bytes, mallocs, exact := measure(c.folds, 10_000)
		if limit := uint64(exact+exact/10) + fixed; bytes > limit {
			t.Errorf("%d folds: Simulate allocated %d bytes, exact array bytes %d (limit %d)", c.folds, bytes, exact, limit)
		}
		// Doubling adds one allocation per array per doubling (the parent
		// of this test made 24 more for 4x the lines of one fold); the
		// controller's own pending-entry pool moves the count by a few
		// either way with queue timing.
		if _, bigger, _ := measure(c.folds, c.scaled); bigger > mallocs+6 {
			t.Errorf("%d folds: %d allocations at 10k lines per array, %d at %d", c.folds, mallocs, bigger, c.scaled)
		}
	}
}
