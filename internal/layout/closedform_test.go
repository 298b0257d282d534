package layout_test

// Differential tests proving the closed-form bank-conflict analysis
// byte-identical to the per-cycle replay (simtest.LayoutReplay into
// Observe), over the shared simtest harness grid, a seeded randomized sweep
// and a fuzz target. These run in CI's -race subset.

import (
	"math/rand"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/layout"
	"scalesim/internal/simtest"
	"scalesim/internal/systolic"
)

// analyzerConfigs are the banked-memory shapes every differential case runs
// under, including the single-bank degenerate layout and a ports-starved
// narrow memory.
var analyzerConfigs = []layout.Config{
	{Banks: 8, PortsPerBank: 2, TotalBandwidth: 64},
	{Banks: 1, PortsPerBank: 1, TotalBandwidth: 4},
	{Banks: 4, PortsPerBank: 1, TotalBandwidth: 16},
}

func newTriple(t testing.TB, lc layout.Config) (ifa, fla, ofa *layout.Analyzer) {
	t.Helper()
	mk := func() *layout.Analyzer {
		a, err := layout.NewAnalyzer(lc)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	return mk(), mk(), mk()
}

// replayTriple replays the per-cycle stream through three analyzers with
// the shared oracle simtest.LayoutReplay.
func replayTriple(t testing.TB, c simtest.Case, lc layout.Config, natural bool) (ifa, fla, ofa *layout.Analyzer) {
	t.Helper()
	ifa, fla, ofa = newTriple(t, lc)
	err := simtest.LayoutReplay(c.Dataflow, c.R, c.C, c.G, natural, func(i, f, o []int64) {
		ifa.Observe(i)
		fla.Observe(f)
		ofa.Observe(o)
	})
	if err != nil {
		t.Fatal(err)
	}
	return ifa, fla, ofa
}

func closedTriple(t testing.TB, c simtest.Case, lc layout.Config, natural bool) (ifa, fla, ofa *layout.Analyzer) {
	t.Helper()
	fs, err := systolic.NewFoldSchedule(c.Dataflow, c.R, c.C, c.G)
	if err != nil {
		t.Fatal(err)
	}
	ifa, fla, ofa = newTriple(t, lc)
	layout.AnalyzeSchedule(fs, ifa, fla, ofa, natural)
	return ifa, fla, ofa
}

func assertAnalyzersEqual(t testing.TB, name string, want, got *layout.Analyzer) {
	t.Helper()
	if want.LayoutCycles != got.LayoutCycles || want.BaselineCycles != got.BaselineCycles ||
		want.Groups != got.Groups || want.ConflictEvents != got.ConflictEvents {
		t.Errorf("%s: closed-form (layout %d, baseline %d, groups %d, conflicts %d) != replay (layout %d, baseline %d, groups %d, conflicts %d)",
			name, got.LayoutCycles, got.BaselineCycles, got.Groups, got.ConflictEvents,
			want.LayoutCycles, want.BaselineCycles, want.Groups, want.ConflictEvents)
	}
}

func assertLayoutCase(t testing.TB, c simtest.Case, lc layout.Config, natural bool) {
	t.Helper()
	wi, wf, wo := replayTriple(t, c, lc, natural)
	gi, gf, go_ := closedTriple(t, c, lc, natural)
	assertAnalyzersEqual(t, "ifmap", wi, gi)
	assertAnalyzersEqual(t, "filter", wf, gf)
	assertAnalyzersEqual(t, "ofmap", wo, go_)
	if want, got := layout.CombinedSlowdown(wi, wf, wo), layout.CombinedSlowdown(gi, gf, go_); want != got {
		t.Errorf("slowdown: closed-form %v != replay %v", got, want)
	}
}

func TestDifferentialLayoutGrid(t *testing.T) {
	for _, c := range simtest.Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for _, lc := range analyzerConfigs {
				for _, natural := range []bool{true, false} {
					assertLayoutCase(t, c, lc, natural)
				}
			}
		})
	}
}

func TestDifferentialLayoutRandomized(t *testing.T) {
	for _, c := range simtest.RandomCases(987, 25) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for _, lc := range analyzerConfigs {
				assertLayoutCase(t, c, lc, true)
			}
		})
	}
}

// TestObserveRunMatchesObserve exercises ObserveRun directly against the
// per-group Observe on seeded random runs, including stride 0 (all elements
// on one address), delta 0 (stationary groups), negative strides and deltas,
// and counts far above the line width.
func TestObserveRunMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, lc := range analyzerConfigs {
		want, err := layout.NewAnalyzer(lc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := layout.NewAnalyzer(lc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			run := layout.AccessRun{
				Base:   int64(rng.Intn(4096)),
				Stride: int64(rng.Intn(65) - 16),
				Delta:  int64(rng.Intn(129) - 32),
				Count:  rng.Intn(64) + 1,
				Steps:  rng.Intn(200) + 1,
			}
			if run.Stride < 0 && run.Base < int64(run.Count)*(-run.Stride) {
				run.Base += int64(run.Count) * (-run.Stride) // keep addresses ≥ 0
			}
			if run.Delta < 0 {
				run.Base += int64(run.Steps) * (-run.Delta)
			}
			got.ObserveRun(run)
			addrs := make([]int64, run.Count)
			for s := 0; s < run.Steps; s++ {
				base := run.Base + int64(s)*run.Delta
				for e := 0; e < run.Count; e++ {
					addrs[e] = base + int64(e)*run.Stride
				}
				want.Observe(addrs)
			}
		}
		assertAnalyzersEqual(t, "random runs", want, got)
	}
}

func TestObserveRunIgnoresEmptyRuns(t *testing.T) {
	a, err := layout.NewAnalyzer(analyzerConfigs[0])
	if err != nil {
		t.Fatal(err)
	}
	a.ObserveRun(layout.AccessRun{Count: 0, Steps: 5})
	a.ObserveRun(layout.AccessRun{Count: 5, Steps: 0})
	if a.Groups != 0 || a.LayoutCycles != 0 || a.BaselineCycles != 0 {
		t.Errorf("empty runs observed: %+v", a)
	}
}

// TestNaturalTransposedMatchesTransforms checks the storage orders the
// closed form uses (NaturalTransposed) against the oracle's transforms, for
// every dataflow.
func TestNaturalTransposedMatchesTransforms(t *testing.T) {
	g := systolic.Gemm{M: 5, N: 7, K: 3}
	for _, df := range config.Dataflows() {
		ti, tf, to := layout.NaturalTransposed(df)
		i, f, o := simtest.NaturalTransforms(df, g)
		if (i != nil) != ti || (f != nil) != tf || (o != nil) != to {
			t.Errorf("%v: transposed (%v,%v,%v) disagrees with transforms (%v,%v,%v)",
				df, ti, tf, to, i != nil, f != nil, o != nil)
		}
	}
}

// FuzzLayoutSlowdownMatchesReplay fuzzes the closed-form layout analysis
// against the per-cycle replay over arbitrary shapes and memory geometries.
func FuzzLayoutSlowdownMatchesReplay(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(4), uint16(8), uint16(8), uint16(8), uint8(8), uint8(2), uint8(64))
	f.Add(uint8(1), uint8(1), uint8(7), uint16(33), uint16(17), uint16(65), uint8(1), uint8(1), uint8(4))
	f.Add(uint8(2), uint8(5), uint8(1), uint16(1), uint16(100), uint16(3), uint8(4), uint8(1), uint8(16))
	dataflows := config.Dataflows()
	f.Fuzz(func(t *testing.T, dfRaw, rRaw, cRaw uint8, mRaw, nRaw, kRaw uint16, banksRaw, portsRaw, bwRaw uint8) {
		c := simtest.Case{
			Dataflow: dataflows[int(dfRaw)%len(dataflows)],
			R:        int(rRaw)%16 + 1,
			C:        int(cRaw)%16 + 1,
			G: systolic.Gemm{
				M: int(mRaw)%64 + 1,
				N: int(nRaw)%64 + 1,
				K: int(kRaw)%64 + 1,
			},
		}
		lc := layout.Config{
			Banks:          int(banksRaw)%16 + 1,
			PortsPerBank:   int(portsRaw)%4 + 1,
			TotalBandwidth: int(bwRaw)%128 + 1,
		}
		for _, natural := range []bool{true, false} {
			assertLayoutCase(t, c, lc, natural)
		}
	})
}

// TestSingleBankDegenerateLayout pins the degenerate Banks=1 geometry: every
// group's cost is the distinct-line count over the one bank's ports.
func TestSingleBankDegenerateLayout(t *testing.T) {
	a, err := layout.NewAnalyzer(layout.Config{Banks: 1, PortsPerBank: 1, TotalBandwidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.GroupCycles([]int64{0, 1, 2, 3}); got != 1 {
		t.Errorf("one line: %d cycles", got)
	}
	if got := a.GroupCycles([]int64{0, 4, 8}); got != 3 {
		t.Errorf("three lines through one port: %d cycles", got)
	}
	// The closed-form run sees the same costs.
	a.ObserveRun(layout.AccessRun{Base: 0, Stride: 4, Count: 3, Steps: 2, Delta: 12})
	if a.LayoutCycles != 6 || a.BaselineCycles != 2 || a.Groups != 2 || a.ConflictEvents != 2 {
		t.Errorf("single-bank run counters: %+v", a)
	}
}
