package scalesim

import (
	"fmt"
	"strings"
)

// Fidelity selects how accurately a run models time. The simulator has
// two tiers of the same answer — closed-form estimates and the
// event-driven engines — and Fidelity is the one public switch between
// them, wired through every Run, Sweep and Explore call by WithFidelity
// and read by the stages via StageContext.Fidelity.
//
// The ladder, fastest first:
//
//	Analytical  — closed-form schedule math: exact compute cycles and DRAM
//	              traffic, stall cycles as a proven lower bound on the
//	              event-driven result. Microseconds per layer; the
//	              screening tier for huge design spaces.
//	EventDriven — the default and the cycle-exact answer. Event-driven
//	              SRAM/DRAM replay that jumps between controller events,
//	              pinned cycle-for-cycle to per-cycle reference loops that
//	              only the differential tests run.
//
// The zero value is EventDriven, so existing callers are unchanged.
// Fidelity is part of the layer-cache fingerprint: results from different
// tiers never serve each other, and the integer values are therefore
// frozen.
type Fidelity int

const (
	// EventDriven is the default tier: event-driven SRAM/DRAM simulation.
	EventDriven Fidelity = iota
	// Analytical is the closed-form screening tier.
	Analytical
)

// String returns the canonical name used in CSV/JSON reports, CLI flags,
// DTO fields and metric labels: "event" or "analytical".
func (f Fidelity) String() string {
	if f == Analytical {
		return "analytical"
	}
	return "event"
}

// Valid reports whether f is one of the two declared tiers.
func (f Fidelity) Valid() bool {
	return f == EventDriven || f == Analytical
}

// ParseFidelity parses a fidelity name as accepted by the CLI and the job
// server: "analytical" and "event" (or "event-driven", or empty for the
// default). The error names the valid values so DTO validation can pass
// it through verbatim.
func ParseFidelity(s string) (Fidelity, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "event", "event-driven", "event_driven":
		return EventDriven, nil
	case "analytical", "analytic":
		return Analytical, nil
	}
	return EventDriven, fmt.Errorf("scalesim: unknown fidelity %q (valid: analytical, event)", s)
}

// StageFidelity is the optional interface a Stage implements to declare
// its fidelity ladder: the returned tiers are the ones the stage
// distinguishes — for any Fidelity requested by WithFidelity the stage
// behaves as the nearest declared tier (the built-in memory stage
// declares both). A stage that does not implement it is assumed
// fidelity-blind: it produces the same result at every tier, which is
// sound because fidelity is part of the cache fingerprint either way.
type StageFidelity interface {
	FidelityLadder() []Fidelity
}

// WithFidelity selects the simulation fidelity for a Run or Sweep
// (default EventDriven). The tier reaches every stage through
// StageContext.Fidelity; the built-in memory stage lowers to closed-form
// traffic/stall bounds at Analytical. Results from different tiers are
// cached under different fingerprints and never substitute for one
// another.
func WithFidelity(f Fidelity) Option {
	return func(o *options) { o.fidelity = f }
}
