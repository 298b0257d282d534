package sram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/simtest"
	"scalesim/internal/systolic"
)

// TestSpanLineCountMatchesLines pins LineCount to its oracle: for random
// spans and line geometries the closed-form count must equal the number of
// addresses Lines materializes, including the shared-boundary-line dedup.
// Rows run to a few hundred and the strides are drawn so that the start
// offset repeats every 1, 2, 4, 8, 16 and lineBytes rows (and everything in
// between), so the periodic form is exercised well past its reference loop;
// the geometries include non-power-of-two word and line sizes.
func TestSpanLineCountMatchesLines(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	geoms := [][2]int64{{4, 64}, {4, 32}, {2, 64}, {8, 128}, {4, 4}, {3, 64}, {4, 48}, {3, 48}, {1, 64}}
	// In words of a {4, 64} geometry: periods 1, 2, 4, 8, 16, 16; with
	// 1-byte words the odd stride has period lineBytes.
	strides := []int64{0, 16, 256, 8, 136, 4, 260, 2, 130, 1, 257, 3}
	periodic := 0
	for i := 0; i < 3000; i++ {
		s := Span{
			Base:      int64(rng.Intn(4096)),
			Rows:      int64(1 + rng.Intn(300)),
			RowWords:  int64(1 + rng.Intn(200)),
			RowStride: int64(rng.Intn(260)),
		}
		if i%2 == 0 {
			s.RowStride = strides[rng.Intn(len(strides))]
		}
		if i%10 == 0 {
			s.RowWords = 0 // empty rows cover no line, aligned or not
		}
		for _, g := range geoms {
			wb, lb := g[0], g[1]
			want := int64(len(s.Lines(nil, wb, lb)))
			if got := s.LineCount(wb, lb); got != want {
				t.Fatalf("span %+v wb=%d lb=%d: LineCount %d, len(Lines) %d", s, wb, lb, got, want)
			}
			if got := s.lineCountRows(s.Rows, wb, lb); got != want {
				t.Fatalf("span %+v wb=%d lb=%d: lineCountRows %d, len(Lines) %d", s, wb, lb, got, want)
			}
			if s.Rows > lb/gcd(s.RowStride*wb%lb, lb)+1 {
				periodic++
			}
		}
	}
	if periodic < 10000 {
		t.Fatalf("only %d spans left the reference loop; the periodic form is barely tested", periodic)
	}
	// The shapes the old tests pinned: empty rows at a line-aligned base,
	// and at an unaligned one (where Lines used to emit a phantom line per
	// row, contradicting Words() == 0).
	for _, empty := range []Span{
		{Base: 64, Rows: 3, RowWords: 0, RowStride: 16},
		{Base: 5, Rows: 10, RowWords: 0, RowStride: 7},
	} {
		if got := empty.LineCount(4, 64); got != 0 {
			t.Fatalf("empty span %+v: LineCount %d, want 0", empty, got)
		}
		if got := empty.Lines(nil, 4, 64); len(got) != 0 {
			t.Fatalf("empty span %+v: Lines %v, want none", empty, got)
		}
	}
	// Addresses below zero do not floor-divide; they must stay on the loop
	// and keep agreeing with Lines.
	neg := Span{Base: -500, Rows: 90, RowWords: 9, RowStride: 13}
	if got, want := neg.LineCount(4, 64), int64(len(neg.Lines(nil, 4, 64))); got != want {
		t.Fatalf("negative-base span: LineCount %d, len(Lines) %d", got, want)
	}
}

// TestEstimateGemmMatchesEstimate pins the schedule-free estimate to the
// one over a built schedule, field for field: over the case grid, dense and
// half-density filters, and scratchpad sizes that switch each operand's
// residency on and off. An invalid request fails with BuildSchedule's error.
func TestEstimateGemmMatchesEstimate(t *testing.T) {
	tech := dram.DDR4_2400()
	opts := Options{WordBytes: 2}
	for _, c := range simtest.Cases() {
		for _, ratio := range []float64{1, 0.5} {
			for resident := 0; resident < 8; resident++ {
				so := ScheduleOptions{FilterRatio: ratio}
				if resident&1 != 0 {
					so.IfmapSRAMWords = 1 << 30
				}
				if resident&2 != 0 {
					so.FilterSRAMWords = 1 << 30
				}
				if resident&4 != 0 {
					so.OfmapSRAMWords = 1 << 30
				}
				sched, err := BuildSchedule(c.Dataflow, c.R, c.C, c.G, so)
				if err != nil {
					t.Fatal(err)
				}
				want := Estimate(sched, tech, 2, opts)
				got, err := EstimateGemm(c.Dataflow, c.R, c.C, c.G, so, tech, 2, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s ratio=%g resident=%03b:\nEstimateGemm %+v\nEstimate     %+v", c.Name, ratio, resident, got, want)
				}
			}
		}
	}
	for _, bad := range []struct {
		df   config.Dataflow
		r, c int
		g    systolic.Gemm
	}{
		{config.WeightStationary, 0, 4, systolic.Gemm{M: 8, N: 8, K: 8}},
		{config.OutputStationary, 4, 4, systolic.Gemm{M: 8, N: 0, K: 8}},
	} {
		_, wantErr := BuildSchedule(bad.df, bad.r, bad.c, bad.g, ScheduleOptions{})
		res, err := EstimateGemm(bad.df, bad.r, bad.c, bad.g, ScheduleOptions{}, tech, 1, opts)
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() || res != nil {
			t.Errorf("invalid request %+v: EstimateGemm (%v, %v), BuildSchedule error %v", bad, res, err, wantErr)
		}
	}
}

// TestEstimateBoundsSimulateGrid is the analytical-tier differential test:
// on the shared simtest case grid the closed-form Estimate must agree with
// the event-driven Simulate exactly on everything that is a property of the
// schedule (compute cycles, word and request counts) and lower-bound
// everything that is a property of controller timing (total and stall
// cycles) — the screen may be optimistic, never pessimistic.
func TestEstimateBoundsSimulateGrid(t *testing.T) {
	techs := map[string]dram.Tech{"ddr4": dram.DDR4_2400(), "hbm2": dram.HBM2_2000()}
	for techName, tech := range techs {
		for _, channels := range []int{1, 4} {
			for _, c := range simtest.Cases() {
				tech, channels, c := tech, channels, c
				t.Run(fmt.Sprintf("%s/%dch/%s", techName, channels, c.Name), func(t *testing.T) {
					t.Parallel()
					sched, err := BuildSchedule(c.Dataflow, c.R, c.C, c.G, ScheduleOptions{})
					if err != nil {
						t.Fatal(err)
					}
					opts := Options{MaxRequestsPerCycle: 2, StreamWindowWords: 2048}
					est := Estimate(sched, tech, channels, opts)
					sys, err := dram.New(tech, dram.Options{Channels: channels, QueueDepth: 16})
					if err != nil {
						t.Fatal(err)
					}
					sim, err := Simulate(sched, sys, opts)
					if err != nil {
						t.Fatal(err)
					}
					if est.ComputeCycles != sim.ComputeCycles {
						t.Errorf("ComputeCycles: analytical %d, event %d", est.ComputeCycles, sim.ComputeCycles)
					}
					if est.ReadWords != sim.ReadWords || est.WriteWords != sim.WriteWords {
						t.Errorf("words: analytical %d/%d, event %d/%d",
							est.ReadWords, est.WriteWords, sim.ReadWords, sim.WriteWords)
					}
					if est.ReadRequests != sim.ReadRequests || est.WriteRequests != sim.WriteRequests {
						t.Errorf("requests: analytical %d/%d, event %d/%d",
							est.ReadRequests, est.WriteRequests, sim.ReadRequests, sim.WriteRequests)
					}
					if est.TotalCycles > sim.TotalCycles {
						t.Errorf("TotalCycles: analytical %d exceeds event %d — not a lower bound",
							est.TotalCycles, sim.TotalCycles)
					}
					if est.StallCycles > sim.StallCycles {
						t.Errorf("StallCycles: analytical %d exceeds event %d", est.StallCycles, sim.StallCycles)
					}
				})
			}
		}
	}
}

// TestEstimateBoundsSimulateRandomized fuzzes the bound with seeded random
// shapes, queue depths and request widths: whatever the replay tunables,
// the analytical cycle counts must stay at or below the event engine's.
func TestEstimateBoundsSimulateRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i, c := range simtest.RandomCases(23, 24) {
		qd := 1 + rng.Intn(16)
		mrc := 1 + rng.Intn(4)
		t.Run(fmt.Sprintf("%02d/%s", i, c.Name), func(t *testing.T) {
			sched, err := BuildSchedule(c.Dataflow, c.R, c.C, c.G, ScheduleOptions{})
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{MaxRequestsPerCycle: mrc, StreamWindowWords: 1024}
			est := Estimate(sched, dram.DDR4_2400(), 2, opts)
			sys, err := dram.New(dram.DDR4_2400(), dram.Options{Channels: 2, QueueDepth: qd})
			if err != nil {
				t.Fatal(err)
			}
			sim, err := Simulate(sched, sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			if est.TotalCycles > sim.TotalCycles {
				t.Errorf("TotalCycles: analytical %d exceeds event %d", est.TotalCycles, sim.TotalCycles)
			}
			if est.ReadWords != sim.ReadWords || est.WriteWords != sim.WriteWords {
				t.Errorf("words diverge: analytical %d/%d, event %d/%d",
					est.ReadWords, est.WriteWords, sim.ReadWords, sim.WriteWords)
			}
		})
	}
}

// TestEstimateGemmAllocsIndependentOfFolds pins EstimateGemm, which the
// Analytical memory stage runs per layer and Explore's screen per
// candidate, to a constant two allocations (the result and the fold storage
// the visitor sees): the fold walk keeps its fold schedule on the stack and
// stores nothing per fold, at 1024 folds as at 16.
func TestEstimateGemmAllocsIndependentOfFolds(t *testing.T) {
	tech := dram.DDR4_2400()
	g := systolic.Gemm{M: 128, N: 128, K: 256}
	for _, df := range config.Dataflows() {
		for _, arr := range []int{4, 32} {
			n := testing.AllocsPerRun(20, func() {
				if _, err := EstimateGemm(df, arr, arr, g, ScheduleOptions{FilterRatio: 0.5}, tech, 2, Options{}); err != nil {
					t.Fatal(err)
				}
			})
			if n != 2 {
				t.Errorf("%v %dx%d: EstimateGemm allocates %v per call, want 2", df, arr, arr, n)
			}
		}
	}
}
