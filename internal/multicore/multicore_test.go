package multicore

import (
	"testing"
	"testing/quick"

	"scalesim/internal/config"
	"scalesim/internal/systolic"
)

func TestRuntimeEquation1(t *testing.T) {
	// Spatial partitioning, Eq. 1 of the paper.
	mp := systolic.Mapping{Sr: 1000, Sc: 2000, T: 500}
	p := Partition{Pr: 4, Pc: 4, Strategy: config.SpatialPartition}
	r, c := 16, 16
	want := systolic.FoldCycles(r, c, 500) *
		int64(systolic.CeilDiv(250, r)) * int64(systolic.CeilDiv(500, c))
	if got := Runtime(p, r, c, mp); got != want {
		t.Errorf("got %d, want %d", got, want)
	}
}

func TestRuntimeSpatioTemporalSplitsT(t *testing.T) {
	// When Sc is too small to split across core columns, spatial
	// partitioning leaves cores idle; spatio-temporal-1 instead splits
	// the large temporal dimension and wins.
	mp := systolic.Mapping{Sr: 128, Sc: 16, T: 10000}
	r, c := 16, 16
	spatial := Runtime(Partition{Pr: 4, Pc: 4, Strategy: config.SpatialPartition}, r, c, mp)
	st1 := Runtime(Partition{Pr: 4, Pc: 4, Strategy: config.SpatioTemporal1}, r, c, mp)
	if st1 >= spatial {
		t.Errorf("spatiotemporal1 %d not below spatial %d for T-heavy mapping", st1, spatial)
	}
}

func TestRuntimeSingleCoreDegenerate(t *testing.T) {
	// Pr=Pc=1 must equal the plain single-core estimate for every
	// strategy.
	mp := systolic.Mapping{Sr: 300, Sc: 200, T: 400}
	single := systolic.FoldCycles(8, 8, 400) *
		int64(systolic.CeilDiv(300, 8)) * int64(systolic.CeilDiv(200, 8))
	for _, s := range []config.PartitionStrategy{
		config.SpatialPartition, config.SpatioTemporal1, config.SpatioTemporal2,
	} {
		if got := Runtime(Partition{Pr: 1, Pc: 1, Strategy: s}, 8, 8, mp); got != single {
			t.Errorf("%v: %d != %d", s, got, single)
		}
	}
}

func TestFootprintDuplication(t *testing.T) {
	mp := systolic.Mapping{Sr: 100, Sc: 200, T: 50}
	p := Partition{Pr: 2, Pc: 4, Strategy: config.SpatialPartition}
	// Spatial: Pc·Sr·T + Pr·T·Sc + Sr·Sc.
	want := int64(4*100*50 + 2*50*200 + 100*200)
	if got := Footprint(p, mp); got != want {
		t.Errorf("got %d, want %d", got, want)
	}
	// L2 removes all duplication.
	if got := L2Footprint(mp); got != int64(100*50+50*200+100*200) {
		t.Errorf("L2 footprint %d", got)
	}
	if saved := L2SavedWords(p, mp); saved != want-L2Footprint(mp) {
		t.Errorf("saved %d", saved)
	}
}

func TestFootprintSingleCoreEqualsL2Property(t *testing.T) {
	// Property: with one core there is no duplication, so every
	// strategy's footprint equals the L2 footprint.
	f := func(sr, sc, tt uint8) bool {
		mp := systolic.Mapping{Sr: int(sr) + 1, Sc: int(sc) + 1, T: int(tt) + 1}
		p := Partition{Pr: 1, Pc: 1}
		for _, s := range []config.PartitionStrategy{
			config.SpatialPartition, config.SpatioTemporal1, config.SpatioTemporal2,
		} {
			p.Strategy = s
			if Footprint(p, mp) != L2Footprint(mp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSearchFindsFactorizations(t *testing.T) {
	mp := systolic.Mapping{Sr: 640, Sc: 640, T: 640}
	ch, err := Search(config.SpatialPartition, 16, 16, 16, mp, MinCycles)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Partition.Pr*ch.Partition.Pc != 16 {
		t.Errorf("partition %dx%d does not use 16 cores", ch.Partition.Pr, ch.Partition.Pc)
	}
	// Exhaustiveness: no factorization beats the returned one.
	for pr := 1; pr <= 16; pr++ {
		if 16%pr != 0 {
			continue
		}
		p := Partition{Pr: pr, Pc: 16 / pr, Strategy: config.SpatialPartition}
		if Runtime(p, 16, 16, mp) < ch.Cycles {
			t.Errorf("search missed better partition %v", p)
		}
	}
}

func TestSearchObjectives(t *testing.T) {
	mp := systolic.Mapping{Sr: 1000, Sc: 100, T: 5000}
	cyc, err := Search(config.SpatioTemporal1, 8, 16, 16, mp, MinCycles)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Search(config.SpatioTemporal1, 8, 16, 16, mp, MinFootprint)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Footprint > cyc.Footprint {
		t.Errorf("footprint-optimized %d worse than cycles-optimized %d",
			fp.Footprint, cyc.Footprint)
	}
	if cyc.Cycles > fp.Cycles {
		t.Errorf("cycles-optimized %d worse than footprint-optimized %d",
			cyc.Cycles, fp.Cycles)
	}
}

func TestSearchErrors(t *testing.T) {
	mp := systolic.Mapping{Sr: 10, Sc: 10, T: 10}
	if _, err := Search(config.SpatialPartition, 0, 8, 8, mp, MinCycles); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestMoreCoresNeverSlowerProperty(t *testing.T) {
	// Property: the best spatial partition with 2× cores is never slower.
	f := func(sr, sc, tt uint8) bool {
		mp := systolic.Mapping{
			Sr: int(sr)%500 + 32, Sc: int(sc)%500 + 32, T: int(tt)%500 + 32,
		}
		a, err := Search(config.SpatialPartition, 4, 8, 8, mp, MinCycles)
		if err != nil {
			return false
		}
		b, err := Search(config.SpatialPartition, 8, 8, 8, mp, MinCycles)
		if err != nil {
			return false
		}
		return b.Cycles <= a.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestApportion(t *testing.T) {
	got := apportion(10, []float64{1, 1, 2})
	sum := 0
	for _, v := range got {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("apportion sum %d", sum)
	}
	if got[2] != 5 {
		t.Errorf("weight-2 core got %d of 10", got[2])
	}
}

func TestApportionSumsProperty(t *testing.T) {
	f := func(total uint8, w1, w2, w3 uint8) bool {
		ws := []float64{float64(w1) + 1, float64(w2) + 1, float64(w3) + 1}
		out := apportion(int(total), ws)
		sum := 0
		for _, v := range out {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum == int(total)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimulateHeteroBalance(t *testing.T) {
	mp := systolic.Mapping{Sr: 512, Sc: 1024, T: 256}
	cores := []config.CoreSpec{
		{Rows: 32, Cols: 32},
		{Rows: 32, Cols: 32},
		{Rows: 16, Cols: 16},
	}
	res, err := SimulateHetero(cores, mp, HeteroOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cr := range res.Cores {
		total += cr.ColsAssigned
	}
	if total != 1024 {
		t.Errorf("assigned %d columns, want 1024", total)
	}
	// The small core must get fewer columns than the big ones.
	if res.Cores[2].ColsAssigned >= res.Cores[0].ColsAssigned {
		t.Errorf("16x16 core got %d cols, 32x32 got %d",
			res.Cores[2].ColsAssigned, res.Cores[0].ColsAssigned)
	}
	if res.Cycles <= 0 {
		t.Error("no makespan")
	}
}

func TestSimulateHeteroNonUniformReducesMakespan(t *testing.T) {
	mp := systolic.Mapping{Sr: 256, Sc: 2048, T: 256}
	cores := []config.CoreSpec{
		{Rows: 32, Cols: 32, NoPHops: 0},
		{Rows: 32, Cols: 32, NoPHops: 8},
	}
	uni, err := SimulateHetero(cores, mp, HeteroOptions{HopLatency: 5000})
	if err != nil {
		t.Fatal(err)
	}
	non, err := SimulateHetero(cores, mp, HeteroOptions{HopLatency: 5000, NonUniform: true})
	if err != nil {
		t.Fatal(err)
	}
	if non.Cycles >= uni.Cycles {
		t.Errorf("non-uniform makespan %d not below uniform %d", non.Cycles, uni.Cycles)
	}
	// The distant core must receive less work under non-uniform
	// partitioning.
	if non.Cores[1].ColsAssigned >= uni.Cores[1].ColsAssigned {
		t.Errorf("distant core work did not shrink: %d vs %d",
			non.Cores[1].ColsAssigned, uni.Cores[1].ColsAssigned)
	}
}

// TestNonUniformNeverSlowerProperty: NoP-aware partitioning may only
// shorten the makespan. Its first case is a 256x256x64 GEMM on a 16x16
// core two hops out plus a near 16x16 core at 100 cycles per hop, where
// the discounted split hands the near core one more column and with it a
// whole extra fold (15 840 cycles against the proportional 14 280).
func TestNonUniformNeverSlowerProperty(t *testing.T) {
	check := func(cores []config.CoreSpec, mp systolic.Mapping, hop int) (uni, non int64) {
		t.Helper()
		for i, nonUniform := range []bool{false, true} {
			res, err := SimulateHetero(cores, mp, HeteroOptions{HopLatency: hop, NonUniform: nonUniform})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				uni = res.Cycles
			} else {
				non = res.Cycles
			}
		}
		if non > uni {
			t.Errorf("cores %+v, mapping %+v, hop latency %d: non-uniform makespan %d above uniform %d",
				cores, mp, hop, non, uni)
		}
		return uni, non
	}
	cores := []config.CoreSpec{{Rows: 16, Cols: 16, NoPHops: 2}, {Rows: 16, Cols: 16}}
	if uni, non := check(cores, systolic.Mapping{Sr: 256, Sc: 256, T: 64}, 100); uni != 14280 || non != 14280 {
		t.Errorf("256x256x64 case: uniform %d, non-uniform %d; want 14280 both", uni, non)
	}

	f := func(rows, cols, hops [4]uint8, n uint8, sr, sc, tt, hop uint16) bool {
		cores := make([]config.CoreSpec, int(n)%4+1)
		for i := range cores {
			cores[i] = config.CoreSpec{
				Rows: (int(rows[i])%8 + 1) * 8, Cols: (int(cols[i])%8 + 1) * 8, NoPHops: int(hops[i]) % 5,
			}
		}
		mp := systolic.Mapping{Sr: int(sr)%1024 + 1, Sc: int(sc)%1024 + 1, T: int(tt)%512 + 1}
		uni, non := check(cores, mp, int(hop)%2000)
		return non <= uni
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSimulateHeteroErrors(t *testing.T) {
	if _, err := SimulateHetero(nil, systolic.Mapping{Sr: 1, Sc: 1, T: 1}, HeteroOptions{}); err == nil {
		t.Error("empty core list accepted")
	}
}
