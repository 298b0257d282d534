package explore

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Strategy generates candidates to evaluate through an ask/tell loop:
// Ask(n) returns up to n candidates never returned before (an empty slice
// means the space is exhausted for this strategy); Tell reports the
// minimization-sense objective vectors of a previously asked batch, in
// Ask order, so adaptive strategies can steer.
//
// Strategies are deterministic for a fixed seed and are not safe for
// concurrent use — the driver loop alternates Ask and Tell from one
// goroutine while the evaluations themselves fan out.
type Strategy interface {
	// Name identifies the strategy in Frontier metadata and CLI output.
	Name() string
	// Ask returns up to n fresh candidates (fewer when the unexplored
	// space runs dry; empty when exhausted).
	Ask(n int) []Candidate
	// Tell reports evaluated objective vectors for a batch returned by
	// Ask. Infeasible candidates carry +Inf components.
	Tell(cands []Candidate, objs [][]float64)
}

// CanonicalStrategy resolves every accepted spelling of a built-in strategy
// name (case-insensitive; empty selects "auto") to the canonical one
// NewStrategy switches on.
func CanonicalStrategy(kind string) (string, error) {
	switch k := strings.ToLower(strings.TrimSpace(kind)); k {
	case "grid", "random", "evolve", "auto":
		return k, nil
	case "evolution", "evolutionary":
		return "evolve", nil
	case "":
		return "auto", nil
	}
	return "", fmt.Errorf("explore: unknown strategy %q (valid: grid, random, evolve, auto)", kind)
}

// NewStrategy builds a named strategy: "grid", "random" or "evolve"
// ("auto" picks grid when the whole space fits within budget evaluations,
// random otherwise), under any spelling CanonicalStrategy accepts.
func NewStrategy(kind string, space Space, seed int64, budget int) (Strategy, error) {
	kind, err := CanonicalStrategy(kind)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "grid":
		return NewGrid(space), nil
	case "evolve":
		return NewEvolution(space, seed), nil
	case "auto":
		if budget > 0 && space.Size() <= int64(budget) {
			return NewGrid(space), nil
		}
	}
	// "random", or "auto" over a space larger than the budget.
	return NewRandom(space, seed), nil
}

// Grid enumerates the whole space in lexicographic order (last axis
// fastest). It ignores Tell.
type Grid struct {
	space Space
	next  int64
	size  int64
}

// NewGrid returns the exhaustive strategy over space.
func NewGrid(space Space) *Grid {
	return &Grid{space: space, size: space.Size()}
}

func (g *Grid) Name() string { return "grid" }

func (g *Grid) Ask(n int) []Candidate {
	var out []Candidate
	for len(out) < n && g.next < g.size {
		out = append(out, g.space.candidateAt(g.next))
		g.next++
	}
	return out
}

func (g *Grid) Tell([]Candidate, [][]float64) {}

// sampler is the shared dedup + seeded sampling state of the random and
// evolutionary strategies.
type sampler struct {
	space Space
	rng   *rand.Rand
	seen  map[string]bool
	size  int64
	// scan is the fallback cursor: when rejection sampling keeps hitting
	// seen candidates, the sampler walks the grid order for the next
	// unseen one so bounded spaces always drain.
	scan int64
}

func newSampler(space Space, seed int64) sampler {
	return sampler{
		space: space,
		rng:   rand.New(rand.NewSource(seed)),
		seen:  make(map[string]bool),
		size:  space.Size(),
	}
}

// exhausted reports whether every point of the space has been asked.
func (s *sampler) exhausted() bool {
	return s.size < math.MaxInt64 && int64(len(s.seen)) >= s.size
}

// take marks c seen, returning false when it already was.
func (s *sampler) take(c Candidate) bool {
	k := c.key()
	if s.seen[k] {
		return false
	}
	s.seen[k] = true
	return true
}

// randomCandidate draws one uniform point (seen or not).
func (s *sampler) randomCandidate() Candidate {
	c := make(Candidate, len(s.space))
	for i := range s.space {
		c[i] = s.rng.Intn(s.space[i].Len())
	}
	return c
}

// randomUnseen draws an unseen point: bounded rejection sampling first,
// then the deterministic grid scan. Returns nil when exhausted.
func (s *sampler) randomUnseen() Candidate {
	if s.exhausted() {
		return nil
	}
	for tries := 0; tries < 64; tries++ {
		if c := s.randomCandidate(); s.take(c) {
			return c
		}
	}
	for ; s.scan < s.size; s.scan++ {
		if c := s.space.candidateAt(s.scan); s.take(c) {
			s.scan++
			return c
		}
	}
	return nil
}

// Random draws seeded uniform samples without replacement. It ignores
// Tell.
type Random struct {
	s sampler
}

// NewRandom returns the seeded random-sampling strategy over space.
func NewRandom(space Space, seed int64) *Random {
	return &Random{s: newSampler(space, seed)}
}

func (r *Random) Name() string { return "random" }

func (r *Random) Ask(n int) []Candidate {
	var out []Candidate
	for len(out) < n {
		c := r.s.randomUnseen()
		if c == nil {
			break
		}
		out = append(out, c)
	}
	return out
}

func (r *Random) Tell([]Candidate, [][]float64) {}

// Evolution is the adaptive hill-climbing strategy: the first generation
// is random; afterwards each Ask mutates members of the current Pareto
// set of everything evaluated so far (one axis nudged a step, or re-rolled
// for enums), topping up with random samples to keep exploring. Dominated
// parents drop out of the mutation pool as the frontier advances.
type Evolution struct {
	s sampler
	// archive accumulates every Tell'd evaluation; front caches the
	// indices of its current Pareto set.
	archive []evalRec
	front   []int
}

type evalRec struct {
	cand Candidate
	objs []float64
}

// NewEvolution returns the seeded evolutionary strategy over space.
func NewEvolution(space Space, seed int64) *Evolution {
	return &Evolution{s: newSampler(space, seed)}
}

func (e *Evolution) Name() string { return "evolve" }

func (e *Evolution) Ask(n int) []Candidate {
	var out []Candidate
	// Mutate the current frontier first: half the batch (rounded up) comes
	// from parents, the rest stays random so the search cannot trap itself
	// in a local frontier.
	if len(e.front) > 0 {
		want := (n + 1) / 2
		for tries := 0; len(out) < want && tries < 16*n; tries++ {
			parent := e.archive[e.front[e.s.rng.Intn(len(e.front))]].cand
			if c := e.mutate(parent); c != nil && e.s.take(c) {
				out = append(out, c)
			}
		}
	}
	for len(out) < n {
		c := e.s.randomUnseen()
		if c == nil {
			break
		}
		out = append(out, c)
	}
	return out
}

// mutate nudges one randomly chosen multi-valued axis of parent: integer
// axes move one step up or down (clamped into range), enum axes re-roll a
// different value. Returns nil when every axis is single-valued.
func (e *Evolution) mutate(parent Candidate) Candidate {
	var axes []int
	for i := range e.s.space {
		if e.s.space[i].Len() > 1 {
			axes = append(axes, i)
		}
	}
	if len(axes) == 0 {
		return nil
	}
	c := parent.clone()
	ax := axes[e.s.rng.Intn(len(axes))]
	n := e.s.space[ax].Len()
	if e.s.space[ax].values[0].isStr {
		// Enums have no order: re-roll to any other value.
		c[ax] = (c[ax] + 1 + e.s.rng.Intn(n-1)) % n
		return c
	}
	step := 1
	if e.s.rng.Intn(2) == 0 {
		step = -1
	}
	v := c[ax] + step
	if v < 0 || v >= n {
		v = c[ax] - step // bounce off the range edge
	}
	c[ax] = v
	return c
}

func (e *Evolution) Tell(cands []Candidate, objs [][]float64) {
	for i := range cands {
		e.archive = append(e.archive, evalRec{cand: cands[i].clone(), objs: objs[i]})
	}
	vecs := make([][]float64, len(e.archive))
	for i := range e.archive {
		vecs[i] = e.archive[i].objs
	}
	e.front = e.front[:0]
	for _, i := range Front(vecs) {
		// Infeasible points (all +Inf) can survive domination when the
		// whole archive is infeasible; they are useless parents.
		if !math.IsInf(e.archive[i].objs[0], 1) {
			e.front = append(e.front, i)
		}
	}
}
