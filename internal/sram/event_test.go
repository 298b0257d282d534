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

// runBoth replays one schedule through the event engine and the retained
// per-cycle reference loop and returns both results. Fresh systems and
// schedules per run: Simulate mutates neither, but the DRAM system is
// stateful.
func runBoth(t *testing.T, df config.Dataflow, r, c int, g systolic.Gemm,
	dopts dram.Options, tech dram.Tech, opts Options) (*Result, *Result) {
	t.Helper()
	run := func(reference bool) *Result {
		sched, err := BuildSchedule(df, r, c, g, ScheduleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := dram.New(tech, dopts)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.ReferenceTickLoop = reference
		res, err := Simulate(sched, sys, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return run(false), run(true)
}

// assertIdentical compares two replay results field for field. Only
// SkippedCycles — the event engine's diagnostic, definitionally zero under
// the reference loop — is exempt.
func assertIdentical(t *testing.T, ev, ref *Result) {
	t.Helper()
	evCmp, refCmp := *ev, *ref
	evCmp.SkippedCycles, refCmp.SkippedCycles = 0, 0
	if !reflect.DeepEqual(evCmp, refCmp) {
		t.Errorf("results diverge:\nevent: %+v\nref:   %+v", evCmp, refCmp)
	}
	if ref.SkippedCycles != 0 {
		t.Errorf("reference loop reported %d skipped cycles", ref.SkippedCycles)
	}
}

// TestEventEngineMatchesReferenceGrid is the differential cycle-exactness
// test: the event-driven replay must be byte-identical to the per-cycle
// reference across dataflows × channel counts × DRAM technologies, refresh
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
						Options{MaxRequestsPerCycle: 2, StreamWindowWords: 2048})
					assertIdentical(t, ev, ref)
					if ev.SkippedCycles == 0 {
						t.Error("event engine skipped zero cycles on a memory-bound config")
					}
				})
			}
		}
	}
}

// TestEventEngineMatchesReferenceTrace checks the CollectTrace path: every
// recorded transaction (arrival, completion, address, direction) must
// match, so trace files are bit-identical too.
func TestEventEngineMatchesReferenceTrace(t *testing.T) {
	g := systolic.Gemm{M: 64, N: 32, K: 48}
	for _, df := range config.Dataflows() {
		t.Run(df.String(), func(t *testing.T) {
			dopts := dram.Options{Channels: 2, QueueDepth: 8}
			ev, ref := runBoth(t, df, 8, 8, g, dopts, dram.DDR4_2400(),
				Options{MaxRequestsPerCycle: 1, StreamWindowWords: 1024, CollectTrace: true})
			assertIdentical(t, ev, ref)
			if len(ev.Trace) == 0 {
				t.Fatal("empty trace")
			}
		})
	}
}

// TestEventEngineMatchesReferenceRandomized fuzzes the schedule space with
// a fixed seed: random GEMMs, array sizes, queue depths, interface widths
// and staging windows, each replayed by both engines.
func TestEventEngineMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dataflows := config.Dataflows()
	for i := 0; i < 12; i++ {
		g := systolic.Gemm{
			M: 8 + rng.Intn(150),
			N: 8 + rng.Intn(100),
			K: 8 + rng.Intn(120),
		}
		arr := []int{4, 8, 16, 32}[rng.Intn(4)]
		df := dataflows[rng.Intn(len(dataflows))]
		channels := 1 + rng.Intn(4)
		depth := []int{4, 8, 32, 64}[rng.Intn(4)]
		// Two draws that once chose a row policy and a scheduler; they
		// stay so every case keeps the shape it is pinned with.
		rng.Intn(2)
		rng.Intn(2)
		dopts := dram.Options{
			Channels:       channels,
			QueueDepth:     depth,
			DisableRefresh: rng.Intn(2) == 0,
		}
		opts := Options{
			MaxRequestsPerCycle: 1 + rng.Intn(4),
			StreamWindowWords:   int64(256 << rng.Intn(5)),
		}
		name := fmt.Sprintf("case%02d/%v/%dx%d/M%dN%dK%d", i, df, arr, arr, g.M, g.N, g.K)
		t.Run(name, func(t *testing.T) {
			ev, ref := runBoth(t, df, arr, arr, g, dopts, dram.DDR4_2400(), opts)
			assertIdentical(t, ev, ref)
		})
	}
}
