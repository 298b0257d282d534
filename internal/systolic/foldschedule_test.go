package systolic_test

// Differential tests proving the closed-form FoldSchedule identical to the
// per-cycle oracle simtest.Stream, over the shared simtest harness grid
// plus a seeded randomized sweep. These run in CI's -race subset.

import (
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/simtest"
	"scalesim/internal/systolic"
)

// assertCaseMatches holds one harness case to the full correctness bar:
// emission-for-emission equality with the oracle and byte-equal stats.
func assertCaseMatches(t *testing.T, c simtest.Case) {
	t.Helper()
	want, err := simtest.StreamEmissions(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := simtest.MaterializeEmissions(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := simtest.DiffEmissions(want, got); err != nil {
		t.Fatalf("materialized schedule diverges from stream oracle: %v", err)
	}
	oracle, err := simtest.CollectStats(c.Dataflow, c.R, c.C, c.G)
	if err != nil {
		t.Fatal(err)
	}
	if closed := scheduleStats(t, c.Dataflow, c.R, c.C, c.G); closed != oracle {
		t.Fatalf("closed-form stats %+v != oracle %+v", closed, oracle)
	}
}

func scheduleStats(t *testing.T, df config.Dataflow, r, c int, g systolic.Gemm) systolic.StreamStats {
	t.Helper()
	fs, err := systolic.NewFoldSchedule(df, r, c, g)
	if err != nil {
		t.Fatal(err)
	}
	return fs.Stats()
}

func TestDifferentialFoldScheduleGrid(t *testing.T) {
	for _, c := range simtest.Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			assertCaseMatches(t, c)
		})
	}
}

func TestDifferentialFoldScheduleRandomized(t *testing.T) {
	for _, c := range simtest.RandomCases(1234, 40) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			assertCaseMatches(t, c)
		})
	}
}

func TestFoldScheduleTotalCyclesMatchesEstimate(t *testing.T) {
	for _, c := range simtest.Cases() {
		fs, err := systolic.NewFoldSchedule(c.Dataflow, c.R, c.C, c.G)
		if err != nil {
			t.Fatal(err)
		}
		est := systolic.Estimate(c.Dataflow, c.R, c.C, c.G.M, c.G.N, c.G.K)
		if fs.TotalCycles() != est.ComputeCycles {
			t.Errorf("%s: schedule cycles %d != estimate %d",
				c.Name, fs.TotalCycles(), est.ComputeCycles)
		}
		if fs.NumFolds() != est.FoldsR*est.FoldsC {
			t.Errorf("%s: folds %d != estimate %d×%d",
				c.Name, fs.NumFolds(), est.FoldsR, est.FoldsC)
		}
	}
}

func TestFoldScheduleVolumesMatchAccess(t *testing.T) {
	// Summed per-fold volumes must reproduce the closed-form SRAM access
	// counts of mapping.go — a second, independent analytical model.
	for _, c := range simtest.Cases() {
		fs, err := systolic.NewFoldSchedule(c.Dataflow, c.R, c.C, c.G)
		if err != nil {
			t.Fatal(err)
		}
		var ifr, flr, ofw, ofr int64
		fs.ForEachFold(func(f *systolic.FoldInfo) bool {
			a, b, cc, d := f.Volumes()
			ifr += a
			flr += b
			ofw += cc
			ofr += d
			return true
		})
		acc := systolic.Access(c.Dataflow, c.R, c.C, c.G.M, c.G.N, c.G.K)
		if ifr != acc.Ifmap.Reads || flr != acc.Filter.Reads ||
			ofw != acc.Ofmap.Writes || ofr != acc.Ofmap.Reads {
			t.Errorf("%s: volumes (%d,%d,%d,%d) != access (%d,%d,%d,%d)",
				c.Name, ifr, flr, ofw, ofr,
				acc.Ifmap.Reads, acc.Filter.Reads, acc.Ofmap.Writes, acc.Ofmap.Reads)
		}
	}
}

func TestFoldSchedulePatternInvariants(t *testing.T) {
	// Address ranges stay inside the operand regions, cycles stay inside
	// the fold, and every materialized address falls within its pattern's
	// range: the coordinate coefficients are non-negative, so the extremes
	// are the first element of the first step and the last of the last.
	for _, c := range simtest.Cases() {
		fs, err := systolic.NewFoldSchedule(c.Dataflow, c.R, c.C, c.G)
		if err != nil {
			t.Fatal(err)
		}
		fs.ForEachFold(func(f *systolic.FoldInfo) bool {
			end := f.StartCycle + f.Cycles - 1
			for i := range f.Patterns {
				p := &f.Patterns[i]
				lo, hi := p.Addr(0, 0, fs.G), p.Addr(p.Count-1, p.Steps-1, fs.G)
				rows, cols := systolic.OperandDims(p.Operand, fs.G)
				base := p.Operand.AddressBase()
				if lo < base || hi >= base+int64(rows)*int64(cols) {
					t.Fatalf("%s fold %d %v: range [%d,%d] outside operand",
						c.Name, f.Index, p.Operand, lo, hi)
				}
				if p.Cycle(0) < f.StartCycle || p.Cycle(p.Steps-1) > end {
					t.Fatalf("%s fold %d %v: cycles [%d,%d] outside fold [%d,%d]",
						c.Name, f.Index, p.Operand,
						p.Cycle(0), p.Cycle(p.Steps-1), f.StartCycle, end)
				}
				for s := 0; s < p.Steps; s++ {
					for e := 0; e < p.Count; e++ {
						if a := p.Addr(e, s, fs.G); a < lo || a > hi {
							t.Fatalf("%s fold %d %v: addr %d outside [%d,%d]",
								c.Name, f.Index, p.Operand, a, lo, hi)
						}
					}
				}
			}
			return true
		})
	}
}

func TestFoldScheduleMaterializeEarlyStop(t *testing.T) {
	fs, err := systolic.NewFoldSchedule(config.OutputStationary, 8, 8,
		systolic.Gemm{M: 64, N: 64, K: 64})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	fs.Materialize(func(d *systolic.Demand) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Errorf("consumer ran %d times after requesting stop at 5", calls)
	}
}

func TestFoldScheduleForEachFoldEarlyStop(t *testing.T) {
	fs, err := systolic.NewFoldSchedule(config.WeightStationary, 4, 4,
		systolic.Gemm{M: 16, N: 16, K: 16})
	if err != nil {
		t.Fatal(err)
	}
	if fs.NumFolds() < 2 {
		t.Fatalf("want a multi-fold schedule, got %d folds", fs.NumFolds())
	}
	visits := 0
	fs.ForEachFold(func(f *systolic.FoldInfo) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Errorf("walked %d folds after stopping at the first", visits)
	}
}

func TestFoldScheduleRejectsBadInput(t *testing.T) {
	if _, err := systolic.NewFoldSchedule(config.OutputStationary, 0, 8,
		systolic.Gemm{M: 1, N: 1, K: 1}); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := systolic.NewFoldSchedule(config.OutputStationary, 8, 8,
		systolic.Gemm{M: 1, N: 0, K: 1}); err == nil {
		t.Error("zero N accepted")
	}
	if _, err := systolic.NewFoldSchedule(config.InputStationary, 8, -1,
		systolic.Gemm{M: 1, N: 1, K: 1}); err == nil {
		t.Error("negative cols accepted")
	}
}

// FuzzFoldScheduleMatchesStream fuzzes the closed-form schedule against the
// per-cycle oracle over arbitrary (dataflow, array, GEMM) inputs.
func FuzzFoldScheduleMatchesStream(f *testing.F) {
	for _, c := range []simtest.Case{
		{Dataflow: config.OutputStationary, R: 4, C: 4, G: systolic.Gemm{M: 8, N: 8, K: 8}},
		{Dataflow: config.WeightStationary, R: 1, C: 7, G: systolic.Gemm{M: 33, N: 17, K: 65}},
		{Dataflow: config.InputStationary, R: 5, C: 1, G: systolic.Gemm{M: 1, N: 100, K: 3}},
	} {
		f.Add(uint8(c.Dataflow), uint8(c.R), uint8(c.C), uint16(c.G.M), uint16(c.G.N), uint16(c.G.K))
	}
	dataflows := config.Dataflows()
	f.Fuzz(func(t *testing.T, dfRaw, rRaw, cRaw uint8, mRaw, nRaw, kRaw uint16) {
		c := simtest.Case{
			Dataflow: dataflows[int(dfRaw)%len(dataflows)],
			R:        int(rRaw)%24 + 1,
			C:        int(cRaw)%24 + 1,
			G: systolic.Gemm{
				M: int(mRaw)%96 + 1,
				N: int(nRaw)%96 + 1,
				K: int(kRaw)%96 + 1,
			},
		}
		assertCaseMatches(t, c)
	})
}

// TestScheduleStatsHandComputed pins exact stats for hand-derivable cases
// with fold-boundary remainders on every dimension.
func TestScheduleStatsHandComputed(t *testing.T) {
	// OS on a 2×2 array, M=3 N=3 K=2: folds (2,2),(2,1),(1,2),(1,1),
	// per-fold 2·2+2+2−2 = 6 cycles.
	st := scheduleStats(t, config.OutputStationary, 2, 2, systolic.Gemm{M: 3, N: 3, K: 2})
	want := systolic.StreamStats{
		Cycles:       24, // 4 folds × 6
		IfmapReads:   12, // Σ T·tileR = 2·(2+2+1+1)
		FilterReads:  12, // Σ T·tileC = 2·(2+1+2+1)
		OfmapWrites:  9,  // Σ tileR·tileC = M·N
		OfmapReads:   0,  // OS accumulates in place
		PeakPerCycle: 4,  // stream cycle of the full tile: tileR+tileC
	}
	if st != want {
		t.Errorf("OS stats %+v != %+v", st, want)
	}

	// WS on a 2×2 array, M=2 N=2 K=3: Sr=K=3 folds the contraction,
	// second fold reads partial sums back.
	st = scheduleStats(t, config.WeightStationary, 2, 2, systolic.Gemm{M: 2, N: 2, K: 3})
	want = systolic.StreamStats{
		Cycles:       12, // 2 folds × (2·2+2+2−2)
		IfmapReads:   6,  // Σ T·tileR = 2·2 + 2·1 = M·K
		FilterReads:  6,  // Σ tileR·tileC = K·N
		OfmapWrites:  8,  // Σ T·tileC = M·N per contraction fold
		OfmapReads:   4,  // read-back on the second contraction fold only
		PeakPerCycle: 4,  // read-back output batch: 2·tileC
	}
	if st != want {
		t.Errorf("WS stats %+v != %+v", st, want)
	}
}

// TestScheduleStatsDegenerateArrays covers 1×N, N×1 and 1×1 arrays where
// fill, stream and drain phases collapse onto each other.
func TestScheduleStatsDegenerateArrays(t *testing.T) {
	for _, arr := range [][2]int{{1, 9}, {9, 1}, {1, 1}} {
		for _, df := range config.Dataflows() {
			g := systolic.Gemm{M: 5, N: 4, K: 3}
			oracle, err := simtest.CollectStats(df, arr[0], arr[1], g)
			if err != nil {
				t.Fatal(err)
			}
			if closed := scheduleStats(t, df, arr[0], arr[1], g); closed != oracle {
				t.Errorf("%v %dx%d: closed-form %+v != oracle %+v",
					df, arr[0], arr[1], closed, oracle)
			}
		}
	}
}

// TestMaterializeAllocsIndependentOfFolds pins Materialize as allocation-free
// per fold: building and expanding a 9-fold and a 64-fold schedule allocate
// the same small constant under every dataflow.
func TestMaterializeAllocsIndependentOfFolds(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	for _, df := range config.Dataflows() {
		allocs := func(n int) float64 {
			g := systolic.Gemm{M: n, N: n, K: n}
			return testing.AllocsPerRun(20, func() {
				fs, err := systolic.NewFoldSchedule(df, 8, 8, g)
				if err != nil {
					t.Fatal(err)
				}
				fs.Materialize(func(*systolic.Demand) bool { return true })
			})
		}
		if few, many := allocs(24), allocs(64); few != many {
			t.Errorf("%v: Materialize allocates %v at 9 folds, %v at 64 folds; want the same constant", df, few, many)
		}
	}
}
