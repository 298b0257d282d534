// Package simtest is the shared differential-oracle test harness: a
// deterministic dataflow × array-size × GEMM-shape case grid plus a seeded
// randomized generator, the per-cycle demand oracle (Stream, a hand-written
// fold-by-fold generator independent of the closed form) and
// emission-capture helpers for comparing the closed-form fold schedule
// against it.
//
// The harness is consumed by the systolic, layout, sram and root-package
// test suites, so every analytical fast path in the repo is proven
// against the same oracle: systolic's FoldSchedule.Materialize and Stats vs
// Stream, layout's closed-form bank-conflict analysis vs LayoutReplay (the
// per-cycle replay of Stream in storage order), and sram's fold-level
// schedule invariants. It deliberately imports only config and systolic —
// packages under test import it from their test files without cycles.
package simtest

import (
	"fmt"
	"math/rand"

	"scalesim/internal/config"
	"scalesim/internal/systolic"
)

// Case is one (dataflow, array, GEMM) differential point.
type Case struct {
	Name     string
	Dataflow config.Dataflow
	R, C     int
	G        systolic.Gemm
}

// Cases returns the deterministic differential grid. The shapes cover exact
// array fits, fold-boundary remainders on every GEMM dimension, degenerate
// M/N/K = 1 operands, and wide/tall extremes; the arrays cover 1×N, N×1,
// non-square and exact-fit geometries.
func Cases() []Case {
	arrays := [][2]int{
		{1, 7},   // single-row array
		{5, 1},   // single-column array
		{1, 1},   // single PE
		{4, 4},   // small square
		{3, 5},   // non-square, odd dims
		{8, 8},   // exact fit for the 8-multiples shapes
		{16, 16}, // larger than several shapes
	}
	shapes := []systolic.Gemm{
		{M: 1, N: 1, K: 1},    // degenerate scalar GEMM
		{M: 1, N: 17, K: 3},   // M=1 row vector
		{M: 9, N: 1, K: 4},    // N=1 column vector
		{M: 8, N: 8, K: 8},    // exact fit on 4×4 and 8×8
		{M: 20, N: 20, K: 20}, // remainder tiles on every array
		{M: 33, N: 17, K: 65}, // primes: remainders on all dims
		{M: 7, N: 100, K: 3},  // wide-N, tiny contraction
		{M: 64, N: 48, K: 96}, // multi-fold with exact tiles on 8×8
	}
	var cases []Case
	for _, df := range config.Dataflows() {
		for _, arr := range arrays {
			for _, g := range shapes {
				cases = append(cases, Case{
					Name: fmt.Sprintf("%v/%dx%d/M%dN%dK%d",
						df, arr[0], arr[1], g.M, g.N, g.K),
					Dataflow: df, R: arr[0], C: arr[1], G: g,
				})
			}
		}
	}
	return cases
}

// RandomCases returns n seeded random cases. The same seed always yields
// the same sequence, so failures reproduce by name.
func RandomCases(seed int64, n int) []Case {
	rng := rand.New(rand.NewSource(seed))
	dataflows := config.Dataflows()
	cases := make([]Case, 0, n)
	for i := 0; i < n; i++ {
		c := Case{
			Dataflow: dataflows[rng.Intn(len(dataflows))],
			R:        1 + rng.Intn(24),
			C:        1 + rng.Intn(24),
			G: systolic.Gemm{
				M: 1 + rng.Intn(120),
				N: 1 + rng.Intn(120),
				K: 1 + rng.Intn(120),
			},
		}
		c.Name = fmt.Sprintf("rand%02d/%v/%dx%d/M%dN%dK%d",
			i, c.Dataflow, c.R, c.C, c.G.M, c.G.N, c.G.K)
		cases = append(cases, c)
	}
	return cases
}

// Stream is the per-cycle oracle of systolic.FoldSchedule.Materialize: a
// hand-written generator of the cycle-accurate demand trace of the GEMM on
// an R×C array under the dataflow, invoking fn once per cycle that has at
// least one access. Cycles advance fold by fold; the stream's last cycle is
// exactly systolic.Estimate(...).ComputeCycles − 1. The phases of a fold
// are those Materialize documents.
func Stream(df config.Dataflow, r, c int, g systolic.Gemm, fn systolic.DemandFunc) error {
	if r <= 0 || c <= 0 {
		return fmt.Errorf("systolic: non-positive array %dx%d", r, c)
	}
	if g.M <= 0 || g.N <= 0 || g.K <= 0 {
		return fmt.Errorf("systolic: non-positive GEMM %+v", g)
	}
	mp := systolic.MappingFor(df, g.M, g.N, g.K)
	fr := systolic.CeilDiv(mp.Sr, r)
	fc := systolic.CeilDiv(mp.Sc, c)
	perFold := systolic.FoldCycles(r, c, mp.T)

	d := new(systolic.Demand)
	base := int64(0)
	for i := 0; i < fr; i++ {
		tileR := min(r, mp.Sr-i*r)
		for j := 0; j < fc; j++ {
			tileC := min(c, mp.Sc-j*c)
			if !streamFold(df, r, c, g, i, j, tileR, tileC, mp.T, base, perFold, d, fn) {
				return nil
			}
			base += perFold
		}
	}
	return nil
}

// streamFold emits one fold. Returns false if the consumer stopped.
func streamFold(df config.Dataflow, r, c int, g systolic.Gemm, fr, fc, tileR, tileC, t int,
	base, perFold int64, d *systolic.Demand, fn systolic.DemandFunc) bool {

	rowOff := fr * r // offset along Sr
	colOff := fc * c // offset along Sc

	emit := func() bool {
		if d.Total() == 0 {
			return true
		}
		return fn(d)
	}

	// Phase 1: stationary fill, cycles base .. base+R-1 (row i fills at
	// base+i). OS has no stationary operand to read.
	if df != config.OutputStationary {
		for i := 0; i < tileR; i++ {
			reset(d, base+int64(i))
			for j := 0; j < tileC; j++ {
				switch df {
				case config.WeightStationary:
					// B[k=rowOff+i, n=colOff+j]
					d.FilterReads = append(d.FilterReads,
						systolic.FilterBase+int64(rowOff+i)*int64(g.N)+int64(colOff+j))
				case config.InputStationary:
					// A[m=colOff+j, k=rowOff+i]
					d.IfmapReads = append(d.IfmapReads,
						systolic.IfmapBase+int64(colOff+j)*int64(g.K)+int64(rowOff+i))
				}
			}
			if !emit() {
				return false
			}
		}
	}

	// Phase 2: streaming, cycles base+R .. base+R+T-1, plus output drain.
	streamBase := base + int64(r)
	// Outputs of WS/IS exit the column bottoms after the psums traverse
	// the full array depth (unused rows still forward), skewed across the
	// columns. We emit them drainLat cycles after their feeding stream
	// cycle, clamped inside the fold; the final batch lands exactly on
	// the fold's last cycle, matching the closed-form 2R+C+T−2.
	drainLat := int64(r + c - 1)
	for step := 0; step < t; step++ {
		cycle := streamBase + int64(step)
		reset(d, cycle)
		switch df {
		case config.OutputStationary:
			// Row r streams A[m=rowOff+r, k=step]; col c streams
			// B[k=step, n=colOff+c].
			for i := 0; i < tileR; i++ {
				d.IfmapReads = append(d.IfmapReads,
					systolic.IfmapBase+int64(rowOff+i)*int64(g.K)+int64(step))
			}
			for j := 0; j < tileC; j++ {
				d.FilterReads = append(d.FilterReads,
					systolic.FilterBase+int64(step)*int64(g.N)+int64(colOff+j))
			}
		case config.WeightStationary:
			// Row k streams A[m=step, k=rowOff+i].
			for i := 0; i < tileR; i++ {
				d.IfmapReads = append(d.IfmapReads,
					systolic.IfmapBase+int64(step)*int64(g.K)+int64(rowOff+i))
			}
		case config.InputStationary:
			// Row k streams B[k=rowOff+i, n=step].
			for i := 0; i < tileR; i++ {
				d.FilterReads = append(d.FilterReads,
					systolic.FilterBase+int64(rowOff+i)*int64(g.N)+int64(step))
			}
		}
		if !emit() {
			return false
		}

		// Output emission for WS/IS: the results fed by stream step
		// exit at step+drainLat; interleave here so cycles stay ordered
		// when drainLat keeps them within the fold.
		if df != config.OutputStationary {
			outCycle := streamBase + int64(step) + drainLat
			if outCycle > base+perFold-1 {
				outCycle = base + perFold - 1
			}
			reset(d, outCycle)
			for j := 0; j < tileC; j++ {
				var addr int64
				if df == config.WeightStationary {
					// O[m=step, n=colOff+j]
					addr = systolic.OfmapBase + int64(step)*int64(g.N) + int64(colOff+j)
				} else {
					// O[m=colOff+j, n=step]
					addr = systolic.OfmapBase + int64(colOff+j)*int64(g.N) + int64(step)
				}
				d.OfmapWrites = append(d.OfmapWrites, addr)
				if fr > 0 { // partial-sum read-back for non-first K folds
					d.OfmapReads = append(d.OfmapReads, addr)
				}
			}
			if !emit() {
				return false
			}
		}
	}

	// Phase 3: OS drains the output tile during the last tileR cycles.
	if df == config.OutputStationary {
		drainStart := base + perFold - int64(tileR)
		for i := 0; i < tileR; i++ {
			reset(d, drainStart+int64(i))
			for j := 0; j < tileC; j++ {
				d.OfmapWrites = append(d.OfmapWrites,
					systolic.OfmapBase+int64(rowOff+i)*int64(g.N)+int64(colOff+j))
			}
			if !emit() {
				return false
			}
		}
	}
	return true
}

func reset(d *systolic.Demand, cycle int64) {
	d.Cycle = cycle
	d.IfmapReads = d.IfmapReads[:0]
	d.FilterReads = d.FilterReads[:0]
	d.OfmapWrites = d.OfmapWrites[:0]
	d.OfmapReads = d.OfmapReads[:0]
}

// CollectStats runs the oracle Stream and tallies the demand volume: the
// per-cycle counterpart of systolic.FoldSchedule.Stats.
func CollectStats(df config.Dataflow, r, c int, g systolic.Gemm) (systolic.StreamStats, error) {
	var st systolic.StreamStats
	err := Stream(df, r, c, g, func(d *systolic.Demand) bool {
		if d.Cycle+1 > st.Cycles {
			st.Cycles = d.Cycle + 1
		}
		st.IfmapReads += int64(len(d.IfmapReads))
		st.FilterReads += int64(len(d.FilterReads))
		st.OfmapWrites += int64(len(d.OfmapWrites))
		st.OfmapReads += int64(len(d.OfmapReads))
		if d.Total() > st.PeakPerCycle {
			st.PeakPerCycle = d.Total()
		}
		return true
	})
	return st, err
}

// Emission is one captured demand callback: the cycle and a copy of every
// channel's addresses in emission order.
type Emission struct {
	Cycle  int64
	Ifmap  []int64
	Filter []int64
	OfmapW []int64
	OfmapR []int64
}

func capture(d *systolic.Demand) Emission {
	cp := func(s []int64) []int64 {
		if len(s) == 0 {
			return nil
		}
		out := make([]int64, len(s))
		copy(out, s)
		return out
	}
	return Emission{
		Cycle:  d.Cycle,
		Ifmap:  cp(d.IfmapReads),
		Filter: cp(d.FilterReads),
		OfmapW: cp(d.OfmapWrites),
		OfmapR: cp(d.OfmapReads),
	}
}

// StreamEmissions runs the per-cycle oracle and captures every emission.
func StreamEmissions(c Case) ([]Emission, error) {
	var out []Emission
	err := Stream(c.Dataflow, c.R, c.C, c.G, func(d *systolic.Demand) bool {
		out = append(out, capture(d))
		return true
	})
	return out, err
}

// MaterializeEmissions expands the closed-form fold schedule into the same
// emission sequence.
func MaterializeEmissions(c Case) ([]Emission, error) {
	fs, err := systolic.NewFoldSchedule(c.Dataflow, c.R, c.C, c.G)
	if err != nil {
		return nil, err
	}
	var out []Emission
	fs.Materialize(func(d *systolic.Demand) bool {
		out = append(out, capture(d))
		return true
	})
	return out, nil
}

// DiffEmissions compares two emission sequences and returns a descriptive
// error for the first divergence; nil means byte-identical.
func DiffEmissions(want, got []Emission) error {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		w, g := want[i], got[i]
		if w.Cycle != g.Cycle {
			return fmt.Errorf("emission %d: cycle %d != %d", i, g.Cycle, w.Cycle)
		}
		for _, ch := range []struct {
			name string
			w, g []int64
		}{
			{"ifmap", w.Ifmap, g.Ifmap},
			{"filter", w.Filter, g.Filter},
			{"ofmap-write", w.OfmapW, g.OfmapW},
			{"ofmap-read", w.OfmapR, g.OfmapR},
		} {
			if len(ch.w) != len(ch.g) {
				return fmt.Errorf("emission %d (cycle %d) %s: %d addrs != %d",
					i, w.Cycle, ch.name, len(ch.g), len(ch.w))
			}
			for j := range ch.w {
				if ch.w[j] != ch.g[j] {
					return fmt.Errorf("emission %d (cycle %d) %s[%d]: %d != %d",
						i, w.Cycle, ch.name, j, ch.g[j], ch.w[j])
				}
			}
		}
	}
	if len(want) != len(got) {
		return fmt.Errorf("emission count %d != %d", len(got), len(want))
	}
	return nil
}
