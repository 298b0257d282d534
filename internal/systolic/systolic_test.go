package systolic

import (
	"testing"
	"testing/quick"

	"scalesim/internal/config"
	"scalesim/internal/topology"
)

func TestMappingFor(t *testing.T) {
	m, n, k := 100, 200, 300
	cases := []struct {
		df   config.Dataflow
		want Mapping
	}{
		{config.OutputStationary, Mapping{Sr: 100, Sc: 200, T: 300}},
		{config.WeightStationary, Mapping{Sr: 300, Sc: 200, T: 100}},
		{config.InputStationary, Mapping{Sr: 300, Sc: 100, T: 200}},
	}
	for _, c := range cases {
		if got := MappingFor(c.df, m, n, k); got != c.want {
			t.Errorf("%v: got %+v, want %+v", c.df, got, c.want)
		}
	}
}

func TestMappingPreservesDims(t *testing.T) {
	// Property: {Sr, Sc, T} is always a permutation of {M, N, K}.
	f := func(m, n, k uint8) bool {
		mm, nn, kk := int(m)+1, int(n)+1, int(k)+1
		for _, df := range config.Dataflows() {
			mp := MappingFor(df, mm, nn, kk)
			if mp.Sr*mp.Sc*mp.T != mm*nn*kk {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFoldCycles(t *testing.T) {
	if got := FoldCycles(32, 32, 100); got != 2*32+32+100-2 {
		t.Errorf("got %d", got)
	}
	// Matches the paper's Eq. 1 with Pr = Pc = 1.
	if got := FoldCycles(8, 16, 1); got != 2*8+16+1-2 {
		t.Errorf("degenerate T=1: got %d", got)
	}
}

func TestEstimateExactFit(t *testing.T) {
	// A GEMM that exactly fills the array once.
	est := Estimate(config.OutputStationary, 16, 16, 16, 16, 64)
	if est.FoldsR != 1 || est.FoldsC != 1 {
		t.Fatalf("folds %dx%d, want 1x1", est.FoldsR, est.FoldsC)
	}
	if est.ComputeCycles != FoldCycles(16, 16, 64) {
		t.Errorf("cycles %d", est.ComputeCycles)
	}
	if est.MappingEfficiency != 1.0 {
		t.Errorf("mapping efficiency %f, want 1", est.MappingEfficiency)
	}
}

func TestEstimateProperties(t *testing.T) {
	f := func(m, n, k, r8, c8 uint8) bool {
		mm, nn, kk := int(m)%200+1, int(n)%200+1, int(k)%200+1
		r, c := int(r8)%32+1, int(c8)%32+1
		for _, df := range config.Dataflows() {
			est := Estimate(df, r, c, mm, nn, kk)
			if est.ComputeCycles <= 0 {
				return false
			}
			if est.Utilization <= 0 || est.Utilization > 1.0000001 {
				return false
			}
			if est.MappingEfficiency <= 0 || est.MappingEfficiency > 1.0000001 {
				return false
			}
			// Folds cover the mapping.
			if est.FoldsR*r < est.Map.Sr || est.FoldsC*c < est.Map.Sc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEstimateMonotoneInArray(t *testing.T) {
	// Growing the array never increases cycles for OS.
	prev := int64(1 << 62)
	for _, r := range []int{8, 16, 32, 64, 128} {
		est := Estimate(config.OutputStationary, r, r, 500, 500, 500)
		if est.ComputeCycles > prev {
			t.Errorf("array %d: cycles %d > smaller array %d", r, est.ComputeCycles, prev)
		}
		prev = est.ComputeCycles
	}
}

func TestAccessCountsOS(t *testing.T) {
	m, n, k := 64, 48, 96
	r, c := 16, 16
	acc := Access(config.OutputStationary, r, c, m, n, k)
	fr, fc := CeilDiv(m, r), CeilDiv(n, c)
	if want := int64(m) * int64(k) * int64(fc); acc.Ifmap.Reads != want {
		t.Errorf("ifmap reads %d, want %d", acc.Ifmap.Reads, want)
	}
	if want := int64(k) * int64(n) * int64(fr); acc.Filter.Reads != want {
		t.Errorf("filter reads %d, want %d", acc.Filter.Reads, want)
	}
	if want := int64(m) * int64(n); acc.Ofmap.Writes != want {
		t.Errorf("ofmap writes %d, want %d", acc.Ofmap.Writes, want)
	}
	if acc.Ofmap.Reads != 0 {
		t.Errorf("OS should not read partial sums, got %d", acc.Ofmap.Reads)
	}
}

func TestAccessWSStationaryLoadedOnce(t *testing.T) {
	m, n, k := 100, 80, 120
	acc := Access(config.WeightStationary, 16, 16, m, n, k)
	if want := int64(k) * int64(n); acc.Filter.Reads != want {
		t.Errorf("WS filter reads %d, want %d (each weight loaded once)", acc.Filter.Reads, want)
	}
	fr := int64(CeilDiv(k, 16))
	if want := int64(m) * int64(n) * fr; acc.Ofmap.Writes != want {
		t.Errorf("WS ofmap writes %d, want %d", acc.Ofmap.Writes, want)
	}
	if want := int64(m) * int64(n) * (fr - 1); acc.Ofmap.Reads != want {
		t.Errorf("WS psum reads %d, want %d", acc.Ofmap.Reads, want)
	}
}

func TestAccessCoversOperandsProperty(t *testing.T) {
	// Property: every operand is touched at least once, reads ≥ operand
	// size for the streamed operands.
	f := func(m, n, k uint8) bool {
		mm, nn, kk := int(m)%100+1, int(n)%100+1, int(k)%100+1
		for _, df := range config.Dataflows() {
			acc := Access(df, 8, 8, mm, nn, kk)
			if acc.Ifmap.Reads < int64(mm)*int64(kk) {
				return false
			}
			if acc.Filter.Reads < int64(kk)*int64(nn) {
				return false
			}
			if acc.Ofmap.Writes < int64(mm)*int64(nn) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStreamMatchesEstimateCycles(t *testing.T) {
	// The demand stream's span must equal the closed-form cycle count.
	cases := []Gemm{
		{M: 20, N: 20, K: 20},
		{M: 33, N: 17, K: 65},
		{M: 7, N: 100, K: 3},
	}
	for _, g := range cases {
		for _, df := range config.Dataflows() {
			fs, err := NewFoldSchedule(df, 8, 8, g)
			if err != nil {
				t.Fatal(err)
			}
			st := fs.Stats()
			est := Estimate(df, 8, 8, g.M, g.N, g.K)
			if st.Cycles != est.ComputeCycles {
				t.Errorf("%v %+v: stream cycles %d != estimate %d",
					df, g, st.Cycles, est.ComputeCycles)
			}
		}
	}
}

func TestStreamVolumesMatchAccess(t *testing.T) {
	// The per-element demand stream must reproduce the closed-form
	// access counts exactly.
	g := Gemm{M: 25, N: 30, K: 40}
	for _, df := range config.Dataflows() {
		fs, err := NewFoldSchedule(df, 8, 8, g)
		if err != nil {
			t.Fatal(err)
		}
		st := fs.Stats()
		acc := Access(df, 8, 8, g.M, g.N, g.K)
		if st.IfmapReads != acc.Ifmap.Reads {
			t.Errorf("%v: stream ifmap %d != access %d", df, st.IfmapReads, acc.Ifmap.Reads)
		}
		if st.FilterReads != acc.Filter.Reads {
			t.Errorf("%v: stream filter %d != access %d", df, st.FilterReads, acc.Filter.Reads)
		}
		if st.OfmapWrites != acc.Ofmap.Writes {
			t.Errorf("%v: stream writes %d != access %d", df, st.OfmapWrites, acc.Ofmap.Writes)
		}
		if st.OfmapReads != acc.Ofmap.Reads {
			t.Errorf("%v: stream psum reads %d != access %d", df, st.OfmapReads, acc.Ofmap.Reads)
		}
	}
}

func TestStreamAddressesInRange(t *testing.T) {
	g := Gemm{M: 13, N: 9, K: 21}
	for _, df := range config.Dataflows() {
		err := Stream(df, 4, 4, g, func(d *Demand) bool {
			for _, a := range d.IfmapReads {
				idx := a - IfmapBase
				if idx < 0 || idx >= int64(g.M)*int64(g.K) {
					t.Fatalf("%v: ifmap addr %d out of range", df, a)
				}
			}
			for _, a := range d.FilterReads {
				idx := a - FilterBase
				if idx < 0 || idx >= int64(g.K)*int64(g.N) {
					t.Fatalf("%v: filter addr %d out of range", df, a)
				}
			}
			for _, a := range d.OfmapWrites {
				idx := a - OfmapBase
				if idx < 0 || idx >= int64(g.M)*int64(g.N) {
					t.Fatalf("%v: ofmap addr %d out of range", df, a)
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestStreamEarlyStop(t *testing.T) {
	calls := 0
	err := Stream(config.OutputStationary, 8, 8, Gemm{M: 64, N: 64, K: 64},
		func(d *Demand) bool {
			calls++
			return calls < 5
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Errorf("consumer ran %d times after requesting stop at 5", calls)
	}
}

func TestStreamRejectsBadInput(t *testing.T) {
	if err := Stream(config.OutputStationary, 0, 8, Gemm{M: 1, N: 1, K: 1}, nil); err == nil {
		t.Error("zero rows accepted")
	}
	if err := Stream(config.OutputStationary, 8, 8, Gemm{M: 0, N: 1, K: 1}, nil); err == nil {
		t.Error("zero M accepted")
	}
}

func TestMinDRAMTraffic(t *testing.T) {
	l := topology.Layer{Name: "g", Kind: topology.GEMM, M: 10, N: 20, K: 30}
	r, w := MinDRAMTraffic(&l)
	if r != 10*30+30*20 {
		t.Errorf("reads %d", r)
	}
	if w != 10*20 {
		t.Errorf("writes %d", w)
	}
}

func TestCeilDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv(1, 0) did not panic")
		}
	}()
	CeilDiv(1, 0)
}
