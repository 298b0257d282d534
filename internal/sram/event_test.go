package sram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/systolic"
)

// replayed is one engine's run: its Result and, when runBoth attached a
// sink, the transactions the sink received, in order.
type replayed struct {
	*Result
	trace []dram.Request
}

// runBoth replays one schedule through the event engine and through the
// per-cycle oracle referenceReplay, and returns both runs; traced attaches
// a sink to the engine (the oracle always returns its trace). Fresh systems
// and schedules per run: Simulate mutates neither, but the DRAM system is
// stateful.
func runBoth(t testing.TB, df config.Dataflow, r, c int, g systolic.Gemm,
	dopts dram.Options, tech dram.Tech, opts Options, traced bool) (replayed, replayed) {
	t.Helper()
	setup := func() (*Schedule, *dram.System) {
		sched, err := BuildSchedule(df, r, c, g, ScheduleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := dram.New(tech, dopts)
		if err != nil {
			t.Fatal(err)
		}
		return sched, sys
	}
	var ev, ref replayed
	sched, sys := setup()
	o := opts
	if traced {
		o.Sink = func(r dram.Request) { ev.trace = append(ev.trace, r) }
	}
	var err error
	if ev.Result, err = Simulate(sched, sys, o); err != nil {
		t.Fatal(err)
	}
	sched, sys = setup()
	if ref.Result, ref.trace, err = referenceReplay(sched, sys, opts); err != nil {
		t.Fatal(err)
	}
	return ev, ref
}

// assertIdentical compares two replay results field for field. Only
// SkippedCycles — the event engine's diagnostic, zero for the oracle, whose
// DRAM system ticks every cycle — is exempt.
func assertIdentical(t testing.TB, ev, ref *Result) {
	t.Helper()
	evCmp, refCmp := *ev, *ref
	evCmp.SkippedCycles, refCmp.SkippedCycles = 0, 0
	if !reflect.DeepEqual(evCmp, refCmp) {
		t.Errorf("results diverge:\nevent: %+v\nref:   %+v", evCmp, refCmp)
	}
	if ref.SkippedCycles != 0 {
		t.Errorf("oracle reported %d skipped cycles", ref.SkippedCycles)
	}
}

// TestEventEngineMatchesReferenceGrid is the differential cycle-exactness
// test: the event-driven replay must be byte-identical to the per-cycle
// oracle across dataflows × channel counts × DRAM technologies, refresh
// on.
func TestEventEngineMatchesReferenceGrid(t *testing.T) {
	g := systolic.Gemm{M: 96, N: 48, K: 64}
	techs := map[string]dram.Tech{"ddr4": dram.DDR4_2400(), "hbm2": dram.HBM2_2000()}
	for techName, tech := range techs {
		for _, df := range config.Dataflows() {
			for _, channels := range []int{1, 2, 4} {
				tech, df, channels := tech, df, channels
				name := fmt.Sprintf("%s/%v/open-row/fr-fcfs/%dch", techName, df, channels)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					dopts := dram.Options{Channels: channels, QueueDepth: 16}
					ev, ref := runBoth(t, df, 16, 16, g, dopts, tech,
						Options{MaxRequestsPerCycle: 2, StreamWindowWords: 2048}, false)
					assertIdentical(t, ev.Result, ref.Result)
					if ev.SkippedCycles == 0 {
						t.Error("event engine skipped zero cycles on a memory-bound config")
					}
				})
			}
		}
	}
}

// TestEventEngineMatchesReferenceTrace checks the Sink path: every
// transaction (arrival, completion, address, direction) must match, so
// trace files are bit-identical too.
func TestEventEngineMatchesReferenceTrace(t *testing.T) {
	g := systolic.Gemm{M: 64, N: 32, K: 48}
	for _, df := range config.Dataflows() {
		t.Run(df.String(), func(t *testing.T) {
			dopts := dram.Options{Channels: 2, QueueDepth: 8}
			ev, ref := runBoth(t, df, 8, 8, g, dopts, dram.DDR4_2400(),
				Options{MaxRequestsPerCycle: 1, StreamWindowWords: 1024}, true)
			assertIdentical(t, ev.Result, ref.Result)
			if len(ev.trace) == 0 {
				t.Fatal("empty trace")
			}
			if !reflect.DeepEqual(ev.trace, ref.trace) {
				t.Error("the event engine's sink and the oracle's trace differ")
			}
		})
	}
}

// replayCase is one point of the replay's input space as raw draws, which
// the fuzzer mutates freely; the methods map them onto valid inputs.
type replayCase struct {
	m, n, k                  uint16
	arr, df, channels, depth uint8
	noRefresh                bool
	reqs, window             uint8
}

func (c replayCase) gemm() systolic.Gemm {
	return systolic.Gemm{M: 8 + int(c.m)%150, N: 8 + int(c.n)%100, K: 8 + int(c.k)%120}
}
func (c replayCase) size() int { return []int{4, 8, 16, 32}[c.arr%4] }
func (c replayCase) dataflow() config.Dataflow {
	return config.Dataflows()[int(c.df)%len(config.Dataflows())]
}

// randomizedCases are twelve cases drawn with a fixed seed.
func randomizedCases() []replayCase {
	rng := rand.New(rand.NewSource(7))
	cases := make([]replayCase, 12)
	for i := range cases {
		c := &cases[i]
		c.m, c.n, c.k = uint16(rng.Intn(150)), uint16(rng.Intn(100)), uint16(rng.Intn(120))
		c.arr, c.df = uint8(rng.Intn(4)), uint8(rng.Intn(3))
		c.channels, c.depth = uint8(rng.Intn(4)), uint8(rng.Intn(4))
		// Two draws that once chose a row policy and a scheduler; they
		// stay so every case keeps the shape it is pinned with.
		rng.Intn(2)
		rng.Intn(2)
		c.noRefresh = rng.Intn(2) == 0
		c.reqs, c.window = uint8(rng.Intn(4)), uint8(rng.Intn(5))
	}
	return cases
}

// checkReplay replays c through the engine, with a sink attached, and the
// oracle. The Results and the transaction streams must be identical, and
// the stream must list exactly the requests the replay issued, in trace
// order — so no stream line is ever skipped.
func checkReplay(t *testing.T, c replayCase) {
	dopts := dram.Options{
		Channels:       1 + int(c.channels)%4,
		QueueDepth:     []int{4, 8, 32, 64}[c.depth%4],
		DisableRefresh: c.noRefresh,
	}
	opts := Options{
		MaxRequestsPerCycle: 1 + int(c.reqs)%4,
		StreamWindowWords:   int64(256 << (c.window % 5)),
	}
	ev, ref := runBoth(t, c.dataflow(), c.size(), c.size(), c.gemm(), dopts, dram.DDR4_2400(), opts, true)
	assertIdentical(t, ev.Result, ref.Result)
	if !reflect.DeepEqual(ev.trace, ref.trace) {
		t.Fatal("the event engine's sink and the oracle's trace differ")
	}
	if n := int64(len(ev.trace)); n != ev.ReadRequests+ev.WriteRequests {
		t.Fatalf("sink received %d transactions, replay issued %d", n, ev.ReadRequests+ev.WriteRequests)
	}
	sched, err := BuildSchedule(c.dataflow(), c.size(), c.size(), c.gemm(), ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range traceOrder(sched) {
		if got := ev.trace[i]; got.Addr != want.Addr || got.Write != want.Write {
			t.Fatalf("transaction %d: %+v, want address %d write %v", i, got, want.Addr, want.Write)
		}
	}
}

// TestEventEngineMatchesReferenceRandomized runs checkReplay over the
// fixed-seed cases: random GEMMs, array sizes, queue depths, interface
// widths and staging windows.
func TestEventEngineMatchesReferenceRandomized(t *testing.T) {
	for i, c := range randomizedCases() {
		g, size := c.gemm(), c.size()
		name := fmt.Sprintf("case%02d/%v/%dx%d/M%dN%dK%d", i, c.dataflow(), size, size, g.M, g.N, g.K)
		t.Run(name, func(t *testing.T) { checkReplay(t, c) })
	}
}

// FuzzEventEngineMatchesReference explores the replay's input space with
// checkReplay, seeded with the fixed-seed cases.
func FuzzEventEngineMatchesReference(f *testing.F) {
	for _, c := range randomizedCases() {
		f.Add(c.m, c.n, c.k, c.arr, c.df, c.channels, c.depth, c.noRefresh, c.reqs, c.window)
	}
	f.Fuzz(func(t *testing.T, m, n, k uint16, arr, df, channels, depth uint8,
		noRefresh bool, reqs, window uint8) {
		checkReplay(t, replayCase{m, n, k, arr, df, channels, depth, noRefresh, reqs, window})
	})
}
