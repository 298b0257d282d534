package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The reference engine is Tick in a loop: refAdvanceTo, refRunUntilDrained
// and refSimulateTrace restate AdvanceTo, RunUntilDrained and SimulateTrace
// one cycle at a time, the oracle the event engine's jumps are checked
// against.

// refAdvanceTo ticks s until its clock reaches target.
func refAdvanceTo(s *System, target int64) {
	for s.Now() < target {
		s.Tick()
	}
}

// refRunUntilDrained ticks s until no request is pending, or fails once
// maxCycles (when non-negative) have elapsed with requests still queued.
func refRunUntilDrained(s *System, maxCycles int64) (int64, error) {
	start := s.Now()
	for s.Pending() > 0 {
		if maxCycles >= 0 && s.Now()-start >= maxCycles {
			return s.Now() - start, fmt.Errorf("dram: not drained after %d cycles (%d pending)",
				maxCycles, s.Pending())
		}
		s.Tick()
	}
	return s.Now() - start, nil
}

// refSimulateTrace feeds reqs (sorted by Arrive) through s: a request that
// finds its queue full retries the next cycle, and each retried cycle
// counts one stall. Then it drains s.
func refSimulateTrace(s *System, reqs []*Request) (Stats, int64, error) {
	var stalls int64
	for i := 0; i < len(reqs); {
		refAdvanceTo(s, reqs[i].Arrive)
		if s.Enqueue(reqs[i]) {
			i++
			continue
		}
		stalls++
		s.Tick()
	}
	_, err := refRunUntilDrained(s, -1)
	return s.Stats(), stalls, err
}

// randomTrace builds a reproducible request mix: bursty arrivals, a few hot
// rows (hits), scattered cold rows (misses/conflicts) and interleaved
// writes.
func randomTrace(rng *rand.Rand, n int, tech *Tech, channels int) []*Request {
	rowBytes := int64(tech.RowBytes())
	banks := int64(tech.Banks())
	var reqs []*Request
	arrive := int64(0)
	for i := 0; i < n; i++ {
		arrive += rng.Int63n(7) // 0..6 cycle gaps: bursts and lulls
		var addr int64
		switch rng.Intn(3) {
		case 0: // hot row stream
			addr = int64(rng.Intn(4))*rowBytes*banks*int64(channels) + int64(rng.Intn(64))*64
		case 1: // scattered row
			addr = rng.Int63n(1<<30) / 64 * 64
		default: // ping-pong rows of one bank
			addr = int64(rng.Intn(2)) * rowBytes * banks * int64(channels)
		}
		reqs = append(reqs, &Request{Arrive: arrive, Addr: addr, Write: rng.Intn(4) == 0})
	}
	return reqs
}

// TestEventEngineSimulateTraceMatchesReference pins the event-driven
// SimulateTrace against the per-cycle refSimulateTrace: identical
// stats, stall counts and per-request completion times across technologies,
// channel counts and refresh settings.
func TestEventEngineSimulateTraceMatchesReference(t *testing.T) {
	techs := map[string]Tech{"ddr4": DDR4_2400(), "hbm2": HBM2_2000()}
	for techName, tech := range techs {
		for _, channels := range []int{1, 2, 4} {
			for _, refresh := range []bool{false, true} {
				opts := Options{
					Channels: channels, QueueDepth: 8,
					DisableRefresh: !refresh,
				}
				name := techName + "/fr-fcfs/open-row/" + string(rune('0'+channels)) + "ch"
				if refresh {
					name += "/refresh"
				}
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(42))
					reqs1 := randomTrace(rng, 300, &tech, channels)
					reqs2 := make([]*Request, len(reqs1))
					for i, r := range reqs1 {
						cp := *r
						reqs2[i] = &cp
					}

					ev := mustNew(t, tech, opts)
					ref := mustNew(t, tech, opts)

					evStats, evStalls, err := ev.SimulateTrace(reqs1)
					if err != nil {
						t.Fatal(err)
					}
					refStats, refStalls, err := refSimulateTrace(ref, reqs2)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(evStats, refStats) {
						t.Errorf("stats diverge:\nevent: %+v\nref:   %+v", evStats, refStats)
					}
					if evStalls != refStalls {
						t.Errorf("stalls diverge: event %d, ref %d", evStalls, refStalls)
					}
					for i := range reqs1 {
						if reqs1[i].Done != reqs2[i].Done {
							t.Fatalf("req %d: Done %d (event) != %d (ref)", i, reqs1[i].Done, reqs2[i].Done)
						}
					}
					if ev.Now() != ref.Now() {
						t.Errorf("clock diverges: event %d, ref %d", ev.Now(), ref.Now())
					}
					if ev.SkippedCycles() == 0 {
						t.Error("event engine skipped zero cycles on a bursty trace")
					}
				})
			}
		}
	}
}

// TestEventEngineRunUntilDrainedMatchesReference checks the drain path,
// including the maxCycles abort boundary.
func TestEventEngineRunUntilDrainedMatchesReference(t *testing.T) {
	tech := DDR4_2400()
	build := func(opts Options) (*System, *System) {
		return mustNew(t, tech, opts), mustNew(t, tech, opts)
	}
	fill := func(s *System, n int) {
		for i := 0; i < n; i++ {
			s.Enqueue(&Request{Addr: int64(i) * 4096, Write: i%3 == 0})
		}
	}

	ev, ref := build(Options{QueueDepth: 64})
	fill(ev, 48)
	fill(ref, 48)
	evCyc, err1 := ev.RunUntilDrained(-1)
	refCyc, err2 := refRunUntilDrained(ref, -1)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if evCyc != refCyc || !reflect.DeepEqual(ev.Stats(), ref.Stats()) {
		t.Errorf("drain diverges: %d vs %d cycles\nevent: %+v\nref:   %+v",
			evCyc, refCyc, ev.Stats(), ref.Stats())
	}

	// Abort boundary: both engines must stop at the same cycle with the
	// same partial state.
	ev2, ref2 := build(Options{QueueDepth: 64})
	fill(ev2, 48)
	fill(ref2, 48)
	evCyc2, evErr := ev2.RunUntilDrained(100)
	refCyc2, refErr := refRunUntilDrained(ref2, 100)
	if (evErr == nil) != (refErr == nil) {
		t.Fatalf("abort mismatch: event err %v, ref err %v", evErr, refErr)
	}
	if evCyc2 != refCyc2 || ev2.Pending() != ref2.Pending() ||
		!reflect.DeepEqual(ev2.Stats(), ref2.Stats()) {
		t.Errorf("abort state diverges: %d/%d pending %d/%d",
			evCyc2, refCyc2, ev2.Pending(), ref2.Pending())
	}
}

// TestAdvanceToIdleRefresh verifies that bulk-advancing an idle system
// fires exactly the refreshes the tick loop would.
func TestAdvanceToIdleRefresh(t *testing.T) {
	tech := DDR4_2400()
	ev := mustNew(t, tech, Options{})
	ref := mustNew(t, tech, Options{})
	target := int64(tech.TREFI)*5 + 17
	ev.AdvanceTo(target)
	refAdvanceTo(ref, target)
	if ev.Now() != ref.Now() {
		t.Fatalf("clock: %d vs %d", ev.Now(), ref.Now())
	}
	if !reflect.DeepEqual(ev.Stats(), ref.Stats()) {
		t.Errorf("stats diverge:\nevent: %+v\nref:   %+v", ev.Stats(), ref.Stats())
	}
	if ev.Stats().Refreshes != 5 {
		t.Errorf("expected 5 refreshes, got %d", ev.Stats().Refreshes)
	}
	if ev.SkippedCycles() == 0 {
		t.Error("idle advance skipped nothing")
	}
}
