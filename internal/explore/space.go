// Package explore is the design-space exploration engine behind the public
// scalesim.Explore facade. It turns a set of typed axes over configuration
// knobs (a Space) into an enumerable grid of candidates, generates
// candidates with deterministic, seeded search strategies (exhaustive grid,
// random sampling, Pareto-mutating evolution) and extracts exact
// multi-objective Pareto frontiers from the evaluated objective vectors.
//
// The package deliberately knows nothing about how a candidate is
// evaluated: strategies trade Candidate index vectors for objective
// vectors through an ask/tell loop, and the caller (the scalesim facade)
// funnels candidates through Sweep batches sharing one layer-result cache.
package explore

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"scalesim/internal/config"
	"scalesim/internal/topology"
)

// Value is one setting of an axis: integer axes carry Int, enum axes Str.
type Value struct {
	Int   int
	Str   string
	isStr bool
}

// IntValue wraps an integer axis setting.
func IntValue(v int) Value { return Value{Int: v} }

// StrValue wraps an enum axis setting.
func StrValue(s string) Value { return Value{Str: s, isStr: true} }

func (v Value) String() string {
	if v.isStr {
		return v.Str
	}
	return strconv.Itoa(v.Int)
}

// Axis is one dimension of a design space: a name, a finite ordered value
// domain and the function that applies a chosen value to a configuration
// (and, for workload axes such as sparsity, to the topology).
type Axis struct {
	name   string
	values []Value
	apply  func(*config.Config, Value)
	// applyTopo is non-nil only for axes that transform the workload
	// (e.g. N:M sparsity). It must not mutate its input.
	applyTopo func(*topology.Topology, Value) (*topology.Topology, error)
}

// Name returns the axis name as used in labels and CSV headers.
func (a *Axis) Name() string { return a.name }

// Len returns the number of settings in the axis domain.
func (a *Axis) Len() int { return len(a.values) }

// Value returns the i-th setting of the domain.
func (a *Axis) Value(i int) Value { return a.values[i] }

// maxAxisValues bounds a single axis domain so a typo'd step of 1 over a
// huge range fails loudly instead of allocating forever.
const maxAxisValues = 1 << 20

// IntRange returns an integer axis enumerating lo, lo+step, ..., ≤ hi.
// apply is called with the chosen value when a candidate is materialized.
func IntRange(name string, lo, hi, step int, apply func(*config.Config, int)) (Axis, error) {
	if err := checkAxisName(name); err != nil {
		return Axis{}, err
	}
	if step <= 0 {
		return Axis{}, fmt.Errorf("explore: axis %s: non-positive step %d", name, step)
	}
	if lo > hi {
		return Axis{}, fmt.Errorf("explore: axis %s: empty range %d..%d", name, lo, hi)
	}
	// Index the values: stepping a value past a hi near MaxInt would
	// overflow and never end. hi-lo is exact as a uint64 for any lo ≤ hi.
	n := uint64(hi-lo)/uint64(step) + 1
	if n > maxAxisValues {
		return Axis{}, fmt.Errorf("explore: axis %s: range %d..%d step %d has too many values", name, lo, hi, step)
	}
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = IntValue(lo + i*step)
	}
	return newIntAxis(name, vals, apply), nil
}

// Pow2 returns an integer axis enumerating the powers of two in [lo, hi].
func Pow2(name string, lo, hi int, apply func(*config.Config, int)) (Axis, error) {
	if err := checkAxisName(name); err != nil {
		return Axis{}, err
	}
	if lo <= 0 || hi <= 0 {
		return Axis{}, fmt.Errorf("explore: axis %s: pow2 bounds must be positive, got %d..%d", name, lo, hi)
	}
	if lo > hi {
		return Axis{}, fmt.Errorf("explore: axis %s: empty range %d..%d", name, lo, hi)
	}
	var vals []Value
	for v := 1; v <= hi && v > 0; v <<= 1 {
		if v >= lo {
			vals = append(vals, IntValue(v))
		}
	}
	if len(vals) == 0 {
		return Axis{}, fmt.Errorf("explore: axis %s: no powers of two in %d..%d", name, lo, hi)
	}
	return newIntAxis(name, vals, apply), nil
}

// Enum returns an axis over an explicit list of string settings.
func Enum(name string, values []string, apply func(*config.Config, string)) (Axis, error) {
	if err := checkAxisName(name); err != nil {
		return Axis{}, err
	}
	if len(values) == 0 {
		return Axis{}, fmt.Errorf("explore: axis %s: empty enum", name)
	}
	seen := make(map[string]bool, len(values))
	vals := make([]Value, 0, len(values))
	for _, s := range values {
		s = strings.TrimSpace(s)
		if s == "" {
			return Axis{}, fmt.Errorf("explore: axis %s: empty enum value", name)
		}
		if seen[s] {
			return Axis{}, fmt.Errorf("explore: axis %s: duplicate enum value %q", name, s)
		}
		seen[s] = true
		vals = append(vals, StrValue(s))
	}
	return Axis{name: name, values: vals, apply: func(c *config.Config, v Value) {
		if apply != nil {
			apply(c, v.Str)
		}
	}}, nil
}

func newIntAxis(name string, vals []Value, apply func(*config.Config, int)) Axis {
	return Axis{name: name, values: vals, apply: func(c *config.Config, v Value) {
		if apply != nil {
			apply(c, v.Int)
		}
	}}
}

func checkAxisName(name string) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("explore: axis with empty name")
	}
	if strings.ContainsAny(name, "=;,") {
		return fmt.Errorf("explore: axis name %q contains a reserved character", name)
	}
	return nil
}

// Candidate selects one setting per space axis, by value index. Candidates
// are what strategies generate and what Space materializes into configs.
type Candidate []int

// key encodes a candidate for dedup maps.
func (c Candidate) key() string {
	var b strings.Builder
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// clone returns an independent copy.
func (c Candidate) clone() Candidate {
	out := make(Candidate, len(c))
	copy(out, c)
	return out
}

// Space is an ordered list of axes spanning the design space.
type Space []Axis

// Validate reports the first structural problem: no axes, an axis with an
// empty domain (impossible via the constructors, possible via literals) or
// duplicate axis names.
func (s Space) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("explore: empty space")
	}
	seen := make(map[string]bool, len(s))
	for i := range s {
		a := &s[i]
		if a.name == "" || len(a.values) == 0 {
			return fmt.Errorf("explore: axis %d (%q) has no values; use the axis constructors", i, a.name)
		}
		if seen[a.name] {
			return fmt.Errorf("explore: duplicate axis %q", a.name)
		}
		seen[a.name] = true
	}
	return nil
}

// Size returns the number of points in the space, saturating at MaxInt64.
func (s Space) Size() int64 {
	size := int64(1)
	for i := range s {
		n := int64(s[i].Len())
		if n == 0 {
			return 0
		}
		if size > math.MaxInt64/n {
			return math.MaxInt64
		}
		size *= n
	}
	return size
}

// dims returns the per-axis domain sizes.
func (s Space) dims() []int {
	d := make([]int, len(s))
	for i := range s {
		d[i] = s[i].Len()
	}
	return d
}

// Apply materializes a candidate: a copy of base with every axis value
// applied in axis order.
func (s Space) Apply(base config.Config, c Candidate) config.Config {
	cfg := base
	for i := range s {
		s[i].apply(&cfg, s[i].values[c[i]])
	}
	return cfg
}

// ApplyTopology applies the workload-transforming axes (if any) to topo,
// returning topo unchanged when none are present. The input is never
// mutated.
func (s Space) ApplyTopology(topo *topology.Topology, c Candidate) (*topology.Topology, error) {
	out := topo
	for i := range s {
		if s[i].applyTopo == nil {
			continue
		}
		t, err := s[i].applyTopo(out, s[i].values[c[i]])
		if err != nil {
			return nil, fmt.Errorf("explore: axis %s=%s: %w", s[i].name, s[i].values[c[i]], err)
		}
		out = t
	}
	return out, nil
}

// Label renders a candidate as "axis=value,axis=value" in axis order — the
// sweep point name and the Point column of FRONTIER.csv.
func (s Space) Label(c Candidate) string {
	var b strings.Builder
	for i := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i].name)
		b.WriteByte('=')
		b.WriteString(s[i].values[c[i]].String())
	}
	return b.String()
}

// Values renders a candidate's per-axis settings, in axis order.
func (s Space) Values(c Candidate) []string {
	out := make([]string, len(s))
	for i := range s {
		out[i] = s[i].values[c[i]].String()
	}
	return out
}

// Names returns the axis names, in axis order.
func (s Space) Names() []string {
	out := make([]string, len(s))
	for i := range s {
		out[i] = s[i].name
	}
	return out
}

// candidateAt decodes the idx-th point of the space in lexicographic order
// (last axis fastest), the grid strategy's enumeration order.
func (s Space) candidateAt(idx int64) Candidate {
	c := make(Candidate, len(s))
	for i := len(s) - 1; i >= 0; i-- {
		n := int64(s[i].Len())
		c[i] = int(idx % n)
		idx /= n
	}
	return c
}
