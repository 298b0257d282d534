package energy

import "fmt"

// Report is the combined energy/power output for one run.
type Report struct {
	// PerComponent is dynamic energy by component (pJ).
	PerComponent map[Component]float64
	// LeakagePJ is the integrated static energy (pJ).
	LeakagePJ float64
	// TotalPJ is dynamic + leakage (pJ).
	TotalPJ float64
	// Cycles and FrequencyMHz convert to time and power.
	Cycles       int64
	FrequencyMHz float64
}

// TotalMJ returns total energy in millijoules.
func (r *Report) TotalMJ() float64 { return r.TotalPJ * 1e-9 }

// Seconds returns the wall time of the run.
func (r *Report) Seconds() float64 {
	if r.FrequencyMHz <= 0 {
		return 0
	}
	return float64(r.Cycles) / (r.FrequencyMHz * 1e6)
}

// AvgPowerMW returns the mean power in milliwatts: pJ × 1e−12 → joules,
// ÷ seconds → watts, × 1e3 → milliwatts.
func (r *Report) AvgPowerMW() float64 {
	s := r.Seconds()
	if s == 0 {
		return 0
	}
	return r.TotalPJ * 1e-12 / s * 1e3
}

// EdP returns the energy-delay product in cycle·mJ, the metric of the
// paper's Table V.
func (r *Report) EdP() float64 { return float64(r.Cycles) * r.TotalMJ() }

// String renders a compact single-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("energy=%.4f mJ cycles=%d power=%.2f mW EdP=%.1f",
		r.TotalMJ(), r.Cycles, r.AvgPowerMW(), r.EdP())
}

// Estimator applies an ERT to action counts.
type Estimator struct {
	ERT *ERT
	// PEs is the total MAC count of the array(s), for leakage.
	PEs int64
	// SRAMKB is the total on-chip SRAM capacity, for leakage.
	SRAMKB int64
	// FrequencyMHz is the accelerator clock.
	FrequencyMHz float64
}

// Estimate produces the report for the given action counts over `cycles`.
//
// Each component's dynamic energy sums its non-zero counts in (component,
// action) order, and the total adds the components in descending energy
// (then name) order, so the float sums never depend on map iteration and
// are identical run to run. Only the Report and its map are allocated.
func (e *Estimator) Estimate(ct Counts, cycles int64) (*Report, error) {
	// ct's entries are sorted by component, so each component's counts are
	// one run and sums[:k] lists the components in name order.
	var sums [maxCounts]struct {
		c  Component
		pj float64
	}
	k := 0
	for _, ac := range ct.entries[:ct.n] {
		if ac.n == 0 {
			continue
		}
		unit, err := e.ERT.Energy(ac.c, ac.a)
		if err != nil {
			return nil, err
		}
		if k == 0 || sums[k-1].c != ac.c {
			sums[k].c, sums[k].pj = ac.c, 0
			k++
		}
		sums[k-1].pj += unit * float64(ac.n)
	}
	// Insertion sort into descending energy, ties by name: at most one
	// entry per component, so a handful of moves.
	for i := 1; i < k; i++ {
		for j := i; j > 0 && (sums[j].pj > sums[j-1].pj ||
			sums[j].pj == sums[j-1].pj && sums[j].c < sums[j-1].c); j-- {
			sums[j], sums[j-1] = sums[j-1], sums[j]
		}
	}
	rep := &Report{
		PerComponent: make(map[Component]float64, k),
		LeakagePJ: e.ERT.PELeakagePJPerCycle*float64(e.PEs)*float64(cycles) +
			e.ERT.SRAMLeakagePJPerKBCycle*float64(e.SRAMKB)*float64(cycles),
		Cycles:       cycles,
		FrequencyMHz: e.FrequencyMHz,
	}
	for _, s := range sums[:k] {
		rep.TotalPJ += s.pj
		rep.PerComponent[s.c] = s.pj
	}
	rep.TotalPJ += rep.LeakagePJ
	return rep, nil
}

// SystemState labels the whole-array operating states of the paper's
// Table III.
type SystemState int

const (
	// StateActive: every PE performing random MACs.
	StateActive SystemState = iota
	// StateIdleClockGated: all PEs clock-gated, leakage only plus the
	// gated-clock residual.
	StateIdleClockGated
	// StatePowerGated: supply-gated, a fraction of leakage remains.
	StatePowerGated
)

func (s SystemState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateIdleClockGated:
		return "idle (clk gating)"
	case StatePowerGated:
		return "power gating"
	default:
		return fmt.Sprintf("SystemState(%d)", int(s))
	}
}

// StateEnergyPJ returns the per-cycle energy of the whole array in the
// given state — the quantity validated against place-and-route numbers in
// the paper's Table III.
func (e *Estimator) StateEnergyPJ(state SystemState) float64 {
	leak := e.ERT.PELeakagePJPerCycle * float64(e.PEs)
	switch state {
	case StateActive:
		return leak + e.ERT.Entries[CompMAC][ActMACRandom]*float64(e.PEs)
	case StateIdleClockGated:
		return leak + e.ERT.Entries[CompMAC][ActMACGated]*float64(e.PEs)
	case StatePowerGated:
		return leak * e.ERT.PEGatedLeakFactor
	default:
		return 0
	}
}
