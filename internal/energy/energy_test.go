package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scalesim/internal/config"
	"scalesim/internal/systolic"
)

func TestERTLookup(t *testing.T) {
	ert := Default65nm()
	v, err := ert.Energy(CompMAC, ActMACRandom)
	if err != nil || v <= 0 {
		t.Fatalf("mac random: %f, %v", v, err)
	}
	if _, err := ert.Energy("fpu", ActRead); err == nil {
		t.Error("unknown component accepted")
	}
	if _, err := ert.Energy(CompMAC, ActRead); err == nil {
		t.Error("unknown action accepted")
	}
	ert.Set("fpu", ActRead, 3.5)
	if v, err := ert.Energy("fpu", ActRead); err != nil || v != 3.5 {
		t.Errorf("custom entry: %f, %v", v, err)
	}
}

func TestERTRepeatCheaperThanRandom(t *testing.T) {
	ert := Default65nm()
	for _, comp := range []Component{CompIfmapSRAM, CompFilterSRAM, CompOfmapSRAM} {
		rr, _ := ert.Energy(comp, ActReadRandom)
		rp, _ := ert.Energy(comp, ActReadRepeat)
		if rp*2 > rr {
			t.Errorf("%s: repeat %f not less than half of random %f (paper: >2× gap)",
				comp, rp, rr)
		}
	}
}

func TestCountsAddMerge(t *testing.T) {
	a := NewCounts()
	a.Add(CompMAC, ActMACRandom, 10)
	a.Add(CompMAC, ActMACRandom, 5)
	b := NewCounts()
	b.Add(CompMAC, ActMACRandom, 7)
	b.Add(CompDRAM, ActRead, 3)
	a.Merge(b)
	if a.Get(CompMAC, ActMACRandom) != 22 {
		t.Errorf("merged count %d", a.Get(CompMAC, ActMACRandom))
	}
	if a.Get(CompDRAM, ActRead) != 3 {
		t.Errorf("dram count %d", a.Get(CompDRAM, ActRead))
	}
}

// TestCountsAgainstMapOracle drives Counts with random (component, action)
// pairs — built-in names, user-defined ones, zero and negative increments,
// more pairs than NewCounts reserves — in random insertion order: Get and
// Merge must agree with a plain map, and Each must visit exactly the
// non-zero entries in (component, action) order whatever the order they
// were added in, because the float sums downstream depend on it.
func TestCountsAgainstMapOracle(t *testing.T) {
	type key struct {
		c Component
		a Action
	}
	comps := []Component{CompMAC, CompIfmapSpad, CompIfmapSRAM, CompDRAM, CompNoC, "tensor_core", "", "zz_custom"}
	acts := []Action{ActRead, ActWrite, ActReadRandom, ActMACGated, ActHop, "fused_mac", "a"}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		ct, other := NewCounts(), NewCounts()
		oracle := make(map[key]int64)
		for i, n := 0, rng.Intn(80); i < n; i++ {
			k := key{comps[rng.Intn(len(comps))], acts[rng.Intn(len(acts))]}
			delta := int64(rng.Intn(7) - 2) // includes 0 and negatives
			if rng.Intn(3) == 0 {
				other.Add(k.c, k.a, delta)
			} else {
				ct.Add(k.c, k.a, delta)
			}
			oracle[k] += delta
		}
		ct.Merge(other)
		for _, c := range comps {
			for _, a := range acts {
				if got, want := ct.Get(c, a), oracle[key{c, a}]; got != want {
					t.Fatalf("trial %d: Get(%q, %q) = %d, oracle %d", trial, c, a, got, want)
				}
			}
		}
		var visited []key
		ct.Each(func(c Component, a Action, n int64) {
			if n == 0 || n != oracle[key{c, a}] {
				t.Fatalf("trial %d: Each(%q, %q) = %d, oracle %d", trial, c, a, n, oracle[key{c, a}])
			}
			visited = append(visited, key{c, a})
		})
		for i := 1; i < len(visited); i++ {
			prev, cur := visited[i-1], visited[i]
			if !(prev.c < cur.c || (prev.c == cur.c && prev.a < cur.a)) {
				t.Fatalf("trial %d: Each order %v is not strictly ascending by (component, action)", trial, visited)
			}
		}
		nonZero := 0
		for _, n := range oracle {
			if n != 0 {
				nonZero++
			}
		}
		if len(visited) != nonZero {
			t.Fatalf("trial %d: Each visited %d entries, oracle has %d non-zero", trial, len(visited), nonZero)
		}
	}
}

func TestRepeatFraction(t *testing.T) {
	// Single stream, 16-word rows: 15/16 repeats.
	if f := repeatFraction(1, 16, 4); math.Abs(f-15.0/16) > 1e-12 {
		t.Errorf("single stream: %f", f)
	}
	// More streams than row buffers degrade the fraction.
	if f := repeatFraction(8, 16, 4); math.Abs(f-15.0/16*0.5) > 1e-12 {
		t.Errorf("oversubscribed: %f", f)
	}
	if f := repeatFraction(4, 1, 4); f != 0 {
		t.Errorf("rowSize 1: %f", f)
	}
}

func TestCountActionsPaperFormulas(t *testing.T) {
	// MAC_random = PEs × cycles × utilization; gated covers the rest.
	prof := &RunProfile{
		Dataflow: config.OutputStationary, R: 8, C: 8,
		M: 16, N: 16, K: 16,
		Cycles: 1000, Utilization: 0.25,
		Access: systolic.Access(config.OutputStationary, 8, 8, 16, 16, 16),
	}
	ecfg := &config.EnergyConfig{ClockGating: true, RowSize: 16, BankSize: 4}
	ct := CountActions(prof, ecfg)
	pes := int64(64)
	wantActive := int64(float64(pes*1000)*0.25 + 0.5)
	if got := ct.Get(CompMAC, ActMACRandom); got != wantActive {
		t.Errorf("mac random %d, want %d", got, wantActive)
	}
	if got := ct.Get(CompMAC, ActMACGated); got != pes*1000-wantActive {
		t.Errorf("mac gated %d", got)
	}
	if ct.Get(CompMAC, ActMACConstant) != 0 {
		t.Error("constant MACs counted despite clock gating")
	}
	// Without clock gating the idle PEs switch to constant.
	ecfg.ClockGating = false
	ct2 := CountActions(prof, ecfg)
	if ct2.Get(CompMAC, ActMACGated) != 0 || ct2.Get(CompMAC, ActMACConstant) == 0 {
		t.Error("clock gating flag ignored")
	}
	// Spad writes equal SRAM reads of the operand.
	if ct.Get(CompIfmapSpad, ActWrite) != prof.Access.Ifmap.Reads {
		t.Error("ifmap spad writes != ifmap SRAM reads")
	}
	// SRAM random+repeat = total reads.
	total := ct.Get(CompIfmapSRAM, ActReadRandom) + ct.Get(CompIfmapSRAM, ActReadRepeat)
	if total != prof.Access.Ifmap.Reads {
		t.Errorf("SRAM read split %d != %d", total, prof.Access.Ifmap.Reads)
	}
}

func TestCountActionsDRAMGate(t *testing.T) {
	prof := &RunProfile{Dataflow: config.OutputStationary, R: 4, C: 4,
		M: 4, N: 4, K: 4, Cycles: 100, Utilization: 0.5,
		DRAMReads: 1000, DRAMWrites: 500}
	off := CountActions(prof, &config.EnergyConfig{})
	if off.Get(CompDRAM, ActRead) != 0 {
		t.Error("DRAM counted with IncludeDRAM off")
	}
	on := CountActions(prof, &config.EnergyConfig{IncludeDRAM: true})
	if on.Get(CompDRAM, ActRead) != 1000 || on.Get(CompDRAM, ActWrite) != 500 {
		t.Error("DRAM not counted with IncludeDRAM on")
	}
}

func TestEstimatorReport(t *testing.T) {
	ert := Default65nm()
	ct := NewCounts()
	ct.Add(CompMAC, ActMACRandom, 1000)
	ct.Add(CompIfmapSRAM, ActReadRandom, 100)
	est := Estimator{ERT: ert, PEs: 64, SRAMKB: 512, FrequencyMHz: 1000}
	rep, err := est.Estimate(ct, 500)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalPJ <= 0 || rep.LeakagePJ <= 0 {
		t.Fatalf("report %+v", rep)
	}
	wantLeak := ert.PELeakagePJPerCycle*64*500 + ert.SRAMLeakagePJPerKBCycle*512*500
	if math.Abs(rep.LeakagePJ-wantLeak) > 1e-6 {
		t.Errorf("leakage %f, want %f", rep.LeakagePJ, wantLeak)
	}
	if rep.AvgPowerMW() <= 0 || rep.EdP() <= 0 || rep.Seconds() <= 0 {
		t.Error("derived metrics not positive")
	}
	if len(rep.Breakdown()) != 2 {
		t.Errorf("breakdown size %d", len(rep.Breakdown()))
	}
	if rep.Breakdown()[0].PJ < rep.Breakdown()[1].PJ {
		t.Error("breakdown not sorted descending")
	}
}

func TestEstimatorUnknownEntryFails(t *testing.T) {
	ct := NewCounts()
	ct.Add("mystery", ActRead, 1)
	est := Estimator{ERT: Default65nm()}
	if _, err := est.Estimate(ct, 10); err == nil {
		t.Error("unknown component did not error")
	}
}

func TestSystemStateOrdering(t *testing.T) {
	est := Estimator{ERT: Default65nm(), PEs: 64}
	active := est.StateEnergyPJ(StateActive)
	idle := est.StateEnergyPJ(StateIdleClockGated)
	gated := est.StateEnergyPJ(StatePowerGated)
	if !(gated < idle && idle < active) {
		t.Errorf("ordering violated: %f %f %f", gated, idle, active)
	}
	// Paper Table III shape: idle is a small fraction of active, power
	// gating cuts idle further by roughly the leak factor.
	if idle/active > 0.6 {
		t.Errorf("idle/active ratio %.2f too high", idle/active)
	}
}

func TestEnergyNonNegativeProperty(t *testing.T) {
	ert := Default65nm()
	ecfg := &config.EnergyConfig{ClockGating: true, RowSize: 16, BankSize: 4, FrequencyMHz: 1000}
	f := func(m, n, k uint8, util8 uint8) bool {
		mm, nn, kk := int(m)%64+1, int(n)%64+1, int(k)%64+1
		est := systolic.Estimate(config.WeightStationary, 8, 8, mm, nn, kk)
		prof := ProfileFromEstimate(config.WeightStationary, est, mm, nn, kk)
		ct := CountActions(prof, ecfg)
		e := Estimator{ERT: ert, PEs: 64, SRAMKB: 64, FrequencyMHz: 1000}
		rep, err := e.Estimate(ct, est.ComputeCycles)
		if err != nil {
			return false
		}
		return rep.TotalPJ > 0 && rep.LeakagePJ >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEnergyAdditivity(t *testing.T) {
	// Estimating merged counts equals the sum of separate estimates
	// (for the dynamic part; leakage follows cycles).
	ert := Default65nm()
	a := NewCounts()
	a.Add(CompMAC, ActMACRandom, 100)
	b := NewCounts()
	b.Add(CompMAC, ActMACRandom, 250)
	merged := NewCounts()
	merged.Merge(a)
	merged.Merge(b)
	est := Estimator{ERT: ert, PEs: 0, SRAMKB: 0, FrequencyMHz: 1000}
	ra, _ := est.Estimate(a, 0)
	rb, _ := est.Estimate(b, 0)
	rm, _ := est.Estimate(merged, 0)
	if math.Abs(rm.TotalPJ-(ra.TotalPJ+rb.TotalPJ)) > 1e-9 {
		t.Errorf("additivity violated: %f vs %f", rm.TotalPJ, ra.TotalPJ+rb.TotalPJ)
	}
}
