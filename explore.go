package scalesim

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"scalesim/internal/explore"
	"scalesim/internal/report"
)

// Design-space exploration: declare a parameter Space over Config knobs,
// one or more Objectives over run results, and a search strategy; Explore
// funnels candidates through Sweep batches sharing one layer-result cache
// and returns the exact multi-objective Pareto frontier.
//
//	space, _ := scalesim.ParseSpace("array=16..128:pow2; dataflow=os,ws,is")
//	frontier, err := scalesim.Explore(ctx, scalesim.DefaultConfig(), topo, space,
//		scalesim.WithExploreObjectives(scalesim.CyclesObjective(), scalesim.EnergyObjective()),
//		scalesim.WithExploreBudget(64), scalesim.WithExploreSeed(1))
//	frontier.WriteAll("out") // FRONTIER.csv + FRONTIER.json
//
// Million-point spaces are cracked with the two-phase screen-and-promote
// loop: WithPromoteTopK / WithPromoteMargin first evaluate the whole space
// at the Analytical fidelity tier (closed forms, microseconds per point),
// then promote only the frontier-adjacent candidates to the accurate tier
// and measure the analytical-vs-accurate error of each promoted point.
//
// Exploration is deterministic: a fixed seed yields a byte-identical
// frontier at any parallelism.

// Re-exported exploration types, so callers need only this package.
type (
	// Axis is one dimension of a design space. Build axes with
	// IntRangeAxis, Pow2Axis, EnumAxis or ParseAxis.
	Axis = explore.Axis
	// Space is an ordered list of axes spanning the design space.
	Space = explore.Space
	// Candidate selects one setting per space axis, by value index.
	Candidate = explore.Candidate
)

// IntRangeAxis returns an integer axis enumerating lo, lo+step, ..., ≤ hi;
// apply writes the chosen value into the candidate configuration.
func IntRangeAxis(name string, lo, hi, step int, apply func(*Config, int)) (Axis, error) {
	return explore.IntRange(name, lo, hi, step, apply)
}

// Pow2Axis returns an integer axis enumerating the powers of two in
// [lo, hi].
func Pow2Axis(name string, lo, hi int, apply func(*Config, int)) (Axis, error) {
	return explore.Pow2(name, lo, hi, apply)
}

// EnumAxis returns an axis over an explicit list of string settings.
func EnumAxis(name string, values []string, apply func(*Config, string)) (Axis, error) {
	return explore.Enum(name, values, apply)
}

// ParseAxis parses one "knob=domain" axis spec over the registered
// configuration knobs — "array=8..128:pow2", "dataflow=os,ws",
// "channels=1..8:pow2", "dram_tech=DDR4,HBM2", "sparsity=dense,2:4" — see
// KnownAxisNames for the knob registry.
func ParseAxis(spec string) (Axis, error) { return explore.ParseAxis(spec) }

// ParseSpace parses a semicolon-separated list of axis specs.
func ParseSpace(spec string) (Space, error) { return explore.ParseSpace(spec) }

// KnownAxisNames lists the configuration knobs ParseAxis understands.
func KnownAxisNames() []string { return explore.KnownAxisNames() }

// Objective is one scalar exploration metric extracted from a Result.
// Objectives are minimized unless Maximize is set; the frontier reports
// raw values either way.
type Objective struct {
	// Name labels the objective in FRONTIER.csv and progress output.
	Name string
	// Maximize flips the sense for dominance comparisons.
	Maximize bool
	// Fn extracts the metric from a finished run.
	Fn func(*Result) float64
}

// CyclesObjective minimizes total runtime cycles (with stalls).
func CyclesObjective() Objective {
	return Objective{Name: "cycles", Fn: func(r *Result) float64 { return float64(r.TotalCycles()) }}
}

// EnergyObjective minimizes total energy in mJ. It reads 0 unless energy
// modeling is enabled in the candidate configurations.
func EnergyObjective() Objective {
	return Objective{Name: "energy_mj", Fn: func(r *Result) float64 { return r.TotalEnergyMJ() }}
}

// EDPObjective minimizes the energy-delay product (cycle·mJ), the paper's
// Table V metric. Requires energy modeling, like EnergyObjective.
func EDPObjective() Objective {
	return Objective{Name: "edp", Fn: func(r *Result) float64 { return r.Summary().EDP }}
}

// DRAMTrafficObjective minimizes main-memory traffic in bytes.
func DRAMTrafficObjective() Objective {
	return Objective{Name: "dram_bytes", Fn: func(r *Result) float64 { return float64(r.Summary().TotalDRAMBytes) }}
}

// UtilizationObjective maximizes the compute-cycle-weighted mean PE
// utilization.
func UtilizationObjective() Objective {
	return Objective{Name: "utilization", Maximize: true,
		Fn: func(r *Result) float64 { return r.Summary().AvgUtilization }}
}

// ParseObjectives parses a comma-separated objective list ("cycles",
// "energy", "edp", "dram", "utilization") for the CLI.
func ParseObjectives(s string) ([]Objective, error) {
	var out []Objective
	for _, name := range splitCommaList(s) {
		switch name {
		case "cycles":
			out = append(out, CyclesObjective())
		case "energy", "energy_mj":
			out = append(out, EnergyObjective())
		case "edp":
			out = append(out, EDPObjective())
		case "dram", "dram_bytes":
			out = append(out, DRAMTrafficObjective())
		case "utilization", "util":
			out = append(out, UtilizationObjective())
		default:
			return nil, fmt.Errorf("scalesim: unknown objective %q (valid: cycles, energy, edp, dram, utilization)", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scalesim: empty objective list")
	}
	return out, nil
}

// SearchStrategy names a built-in candidate-generation strategy.
type SearchStrategy string

const (
	// GridSearch enumerates the whole space exhaustively.
	GridSearch SearchStrategy = "grid"
	// RandomSearch draws seeded uniform samples without replacement.
	RandomSearch SearchStrategy = "random"
	// EvolutionSearch mutates the current Pareto set, topped up with
	// random samples — adaptive hill climbing toward the frontier.
	EvolutionSearch SearchStrategy = "evolve"
	// AutoSearch picks GridSearch when the space fits in the evaluation
	// budget and RandomSearch otherwise. The default.
	AutoSearch SearchStrategy = "auto"
)

// ParseSearchStrategy resolves a strategy name as the explore CLI's
// -strategy flag and the job server's "strategy" field spell it: "grid",
// "random", "evolve" (also "evolution", "evolutionary") or "auto" (also
// empty), case-insensitive. The error lists the valid values.
func ParseSearchStrategy(s string) (SearchStrategy, error) {
	name, err := explore.CanonicalStrategy(s)
	return SearchStrategy(name), err
}

// ExploreProgress reports one evaluated candidate to a WithExploreProgress
// callback.
type ExploreProgress struct {
	Generation int      // 1-based batch number within the phase
	Evaluated  int      // candidates finished so far in this phase, including this one
	Budget     int      // maximum evaluations for this phase
	Point      string   // candidate label ("array=32,dataflow=ws")
	Fidelity   Fidelity // tier the candidate was evaluated at
	Err        error    // non-nil when the candidate was infeasible
}

// exploreOptions collects the Explore tunables.
type exploreOptions struct {
	objectives    []Objective
	strategy      SearchStrategy
	budget        int
	batch         int
	seed          int64
	parallelism   int
	cache         *Cache
	progress      func(ExploreProgress)
	fidelity      Fidelity
	promoteTopK   int
	promoteMargin float64
}

// ExploreOption configures one Explore call.
type ExploreOption func(*exploreOptions)

// WithExploreObjectives sets the exploration objectives (default:
// CyclesObjective alone). Objective names must be unique.
func WithExploreObjectives(objs ...Objective) ExploreOption {
	return func(o *exploreOptions) {
		if len(objs) > 0 {
			o.objectives = objs
		}
	}
}

// WithExploreStrategy selects a built-in search strategy (default
// AutoSearch).
func WithExploreStrategy(s SearchStrategy) ExploreOption {
	return func(o *exploreOptions) { o.strategy = s }
}

// WithExploreBudget bounds the search to at most n candidate evaluations
// (default 256). Infeasible candidates count: the budget bounds simulation
// work, not frontier size. With screening enabled the budget bounds the
// analytical screen; promotion adds at most PromoteTopK plus the
// margin-qualified candidates on top.
func WithExploreBudget(n int) ExploreOption {
	return func(o *exploreOptions) {
		if n > 0 {
			o.budget = n
		}
	}
}

// WithExploreBatchSize sets how many candidates are evaluated per Sweep
// batch — the generation size of adaptive strategies (default 8).
func WithExploreBatchSize(n int) ExploreOption {
	return func(o *exploreOptions) {
		if n > 0 {
			o.batch = n
		}
	}
}

// WithExploreSeed seeds the stochastic strategies (default 1). A fixed
// seed makes the whole exploration deterministic at any parallelism.
func WithExploreSeed(seed int64) ExploreOption {
	return func(o *exploreOptions) { o.seed = seed }
}

// WithExploreFidelity sets the accurate simulation tier candidates are
// evaluated at (default EventDriven) — the tier promoted candidates reach
// when screening is enabled, or the tier of every evaluation otherwise.
// The Analytical screen itself is not configurable.
func WithExploreFidelity(f Fidelity) ExploreOption {
	return func(o *exploreOptions) { o.fidelity = f }
}

// WithPromoteTopK enables two-phase screen-and-promote exploration: the
// whole budget is first evaluated at the Analytical tier, then the
// analytical Pareto front plus the k best-ranked candidates (by
// minimization-sense objective keys) are promoted to the accurate tier.
// The frontier is computed from accurate results only; every promoted
// point records its measured analytical-vs-accurate error. Setting k to
// at least the space size promotes every feasible candidate, reproducing
// the single-tier frontier exactly.
func WithPromoteTopK(k int) ExploreOption {
	return func(o *exploreOptions) {
		if k > 0 {
			o.promoteTopK = k
		}
	}
}

// WithPromoteMargin enables screening like WithPromoteTopK and widens the
// promotion set to every candidate within relative margin m of the
// analytical front: a candidate is promoted when shrinking each of its
// objective keys by m·|key| leaves it non-dominated. m of 0.1 promotes
// everything within ~10% of the front. Composes with WithPromoteTopK (the
// union is promoted).
func WithPromoteMargin(m float64) ExploreOption {
	return func(o *exploreOptions) {
		if m > 0 {
			o.promoteMargin = m
		}
	}
}

// WithExploreParallelism bounds the worker pool each evaluation batch runs
// on (default GOMAXPROCS), like WithParallelism for Sweep.
func WithExploreParallelism(n int) ExploreOption {
	return func(o *exploreOptions) { o.parallelism = n }
}

// WithExploreCache shares an existing layer-result cache with the search.
// By default every Explore call creates a private cache with default
// bounds; passing one in lets repeated explorations (or surrounding Run
// and Sweep calls) reuse each other's simulations.
func WithExploreCache(c *Cache) ExploreOption {
	return func(o *exploreOptions) { o.cache = c }
}

// WithExploreProgress registers a callback invoked once per evaluated
// candidate. Callbacks are serialized but arrive in completion order
// within a batch.
func WithExploreProgress(fn func(ExploreProgress)) ExploreOption {
	return func(o *exploreOptions) { o.progress = fn }
}

// FrontierPoint is one non-dominated design of a Frontier.
type FrontierPoint struct {
	// Name is the candidate label, "axis=value,..." in axis order.
	Name string
	// Config is the fully materialized configuration of the design.
	Config Config
	// AxisValues are the per-axis settings, in space-axis order.
	AxisValues []string
	// Objectives are the raw objective values, in objective order
	// (maximize objectives are not negated here).
	Objectives []float64
	// Result is the full simulation result of the design.
	Result *Result
	// Fidelity is the simulation tier that produced Objectives and Result.
	Fidelity Fidelity
	// ScreenError maps objective name to the measured relative error
	// |accurate − analytical| / max(|accurate|, ε) between this point's
	// analytical screen values and its promoted accurate values. Nil
	// unless the point went through screen-and-promote.
	ScreenError map[string]float64
}

// Frontier is the outcome of an exploration: the Pareto-optimal designs
// under the declared objectives, plus search accounting.
type Frontier struct {
	// AxisNames and ObjectiveNames give the column order of the points.
	AxisNames      []string
	ObjectiveNames []string
	// Points are the non-dominated designs, sorted by objective values
	// (minimization sense, then name) for deterministic output.
	Points []FrontierPoint
	// Strategy and Seed record how the search ran.
	Strategy string
	Seed     int64
	// Fidelity is the accurate tier of the search — the tier frontier
	// points were evaluated at (WithExploreFidelity, default EventDriven).
	Fidelity Fidelity
	// Evaluated counts candidates simulated at the accurate tier;
	// Infeasible counts candidates (at either tier) whose configuration
	// was rejected or whose simulation failed.
	Evaluated  int
	Infeasible int
	// Screened counts Analytical-tier screening evaluations (0 unless
	// screening was enabled); Promoted counts the screened candidates
	// promoted to the accurate tier.
	Screened int
	Promoted int
	// CacheStats aggregates layer-cache hits and misses across every
	// evaluation of the search.
	CacheStats RunCacheStats
}

// Canonical frontier file names.
const (
	FrontierCSVFile  = "FRONTIER.csv"
	FrontierJSONFile = "FRONTIER.json"
)

// CSVReport renders the frontier as FRONTIER.csv in the ReportSet style.
func (f *Frontier) CSVReport() *Report {
	rows := make([]report.FrontierRow, len(f.Points))
	for i, p := range f.Points {
		rows[i] = report.FrontierRow{Name: p.Name, AxisValues: p.AxisValues,
			Objectives: p.Objectives, Fidelity: p.Fidelity.String()}
	}
	return &Report{name: FrontierCSVFile, write: func(w io.Writer) error {
		return report.WriteFrontier(w, f.AxisNames, f.ObjectiveNames, rows)
	}}
}

// frontierJSON is the stable JSON shape of a frontier.
type frontierJSON struct {
	Strategy   string              `json:"strategy"`
	Seed       int64               `json:"seed"`
	Fidelity   string              `json:"fidelity"`
	Evaluated  int                 `json:"evaluated"`
	Infeasible int                 `json:"infeasible"`
	Screened   int                 `json:"screened,omitempty"`
	Promoted   int                 `json:"promoted,omitempty"`
	Axes       []string            `json:"axes"`
	Objectives []string            `json:"objectives"`
	Points     []frontierPointJSON `json:"points"`
}

type frontierPointJSON struct {
	Name        string             `json:"name"`
	Axes        []string           `json:"axes"`
	Objectives  []float64          `json:"objectives"`
	Fidelity    string             `json:"fidelity"`
	ScreenError map[string]float64 `json:"screen_error,omitempty"`
}

// JSONReport renders the frontier as FRONTIER.json.
func (f *Frontier) JSONReport() *Report {
	return &Report{name: FrontierJSONFile, write: func(w io.Writer) error {
		out := frontierJSON{
			Strategy:   f.Strategy,
			Seed:       f.Seed,
			Fidelity:   f.Fidelity.String(),
			Evaluated:  f.Evaluated,
			Infeasible: f.Infeasible,
			Screened:   f.Screened,
			Promoted:   f.Promoted,
			Axes:       f.AxisNames,
			Objectives: f.ObjectiveNames,
			Points:     make([]frontierPointJSON, len(f.Points)),
		}
		for i, p := range f.Points {
			out.Points[i] = frontierPointJSON{Name: p.Name, Axes: p.AxisValues,
				Objectives: p.Objectives, Fidelity: p.Fidelity.String(), ScreenError: p.ScreenError}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}}
}

// WriteAll writes FRONTIER.csv and FRONTIER.json into dir, creating it if
// needed.
func (f *Frontier) WriteAll(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range []*Report{f.CSVReport(), f.JSONReport()} {
		w, err := os.Create(filepath.Join(dir, r.Filename()))
		if err != nil {
			return err
		}
		_, werr := r.WriteTo(w)
		if cerr := w.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// evaluation records one feasible candidate's outcome during a search. It
// holds no Config and no axis values: both are re-derived from cand for the
// few candidates that are promoted or reach the frontier.
type evaluation struct {
	label     string
	cand      Candidate // copy of the candidate, to re-materialize it from
	raw       []float64 // objective values as reported
	keys      []float64 // minimization-sense keys for dominance
	result    *Result   // nil for screened candidates: a screen keeps scores only
	fidelity  Fidelity
	screenErr map[string]float64 // analytical-vs-accurate error, promoted points only
}

// explorer bundles the state shared by the search and promotion phases.
type explorer struct {
	base    Config
	topo    *Topology
	space   Space
	o       *exploreOptions
	f       *Frontier
	infKeys []float64
}

// searchOutcome is the accounting of one strategy-driven search phase.
type searchOutcome struct {
	evals      []evaluation
	evaluated  int // candidates asked of the strategy, including infeasible
	infeasible int
	gens       int
}

// Explore searches the design space spanned by space around the base
// configuration, simulating candidates on topo in Sweep batches that share
// one layer-result cache (so neighboring candidates re-simulate only
// changed layers), and returns the exact Pareto frontier under the
// declared objectives.
//
// The search is budget-bounded (WithExploreBudget) and cancellable: on
// context cancellation Explore returns the frontier of the batches that
// completed together with the context's error. Candidates whose
// configuration fails validation or whose simulation errors are counted as
// infeasible and excluded from the frontier — adaptive strategies steer
// away from them. For a fixed seed the result is byte-identical through
// the CSV/JSON writers at any parallelism.
//
// With WithPromoteTopK or WithPromoteMargin the search runs in two phases:
// the strategy first spends the whole budget at the Analytical tier
// (closed forms, no replay), then the analytical Pareto front plus the
// top-K and margin-qualified candidates are promoted to the accurate tier
// (WithExploreFidelity) and the frontier is computed from the accurate
// results alone, each promoted point carrying its measured
// analytical-vs-accurate error.
func Explore(ctx context.Context, base Config, topo *Topology, space Space, opts ...ExploreOption) (*Frontier, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := exploreOptions{
		objectives: []Objective{CyclesObjective()},
		strategy:   AutoSearch,
		budget:     256,
		batch:      8,
		seed:       1,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if !o.fidelity.Valid() {
		return nil, fmt.Errorf("scalesim: invalid explore fidelity %d", int(o.fidelity))
	}
	seen := make(map[string]bool, len(o.objectives))
	for _, obj := range o.objectives {
		if obj.Name == "" || obj.Fn == nil {
			return nil, fmt.Errorf("scalesim: objective with empty name or nil Fn")
		}
		if seen[obj.Name] {
			return nil, fmt.Errorf("scalesim: duplicate objective %q", obj.Name)
		}
		seen[obj.Name] = true
	}
	strat, err := explore.NewStrategy(string(o.strategy), space, o.seed, o.budget)
	if err != nil {
		return nil, err
	}
	cache := o.cache
	if cache == nil {
		cache = NewCache(0, 0)
	}

	f := &Frontier{
		AxisNames: space.Names(),
		Strategy:  strat.Name(),
		Seed:      o.seed,
		Fidelity:  o.fidelity,
	}
	for _, obj := range o.objectives {
		f.ObjectiveNames = append(f.ObjectiveNames, obj.Name)
	}
	e := &explorer{base: base, topo: topo, space: space, o: &o, f: f}
	e.infKeys = make([]float64, len(o.objectives))
	for i := range e.infKeys {
		e.infKeys[i] = math.Inf(1)
	}

	if o.promoteTopK == 0 && o.promoteMargin == 0 {
		// Single-tier search: every evaluation at the accurate fidelity.
		out, err := e.search(ctx, strat, cache, o.fidelity, o.budget, true)
		f.Evaluated += out.evaluated
		f.Infeasible += out.infeasible
		e.finishFrontier(out.evals)
		return f, err
	}

	// Phase 1: screen the whole budget at the Analytical tier. Caching is
	// skipped — distinct candidates never share whole-layer fingerprints,
	// and at microseconds per closed-form evaluation the key hashing would
	// dominate the work. Results are scored and dropped: promotion
	// re-simulates the few candidates it picks.
	out, err := e.search(ctx, strat, nil, Analytical, o.budget, false)
	f.Screened = out.evaluated
	f.Infeasible += out.infeasible
	if err != nil {
		// Cancelled mid-screen: nothing reached the accurate tier.
		e.finishFrontier(nil)
		return f, err
	}
	// Phase 2: promote the frontier-adjacent candidates.
	accurate, err := e.promote(ctx, cache, out.evals, out.gens)
	e.finishFrontier(accurate)
	return f, err
}

// maxPreallocEvals bounds the evaluation list search allocates up front.
const maxPreallocEvals = 1 << 16

// search runs the strategy ask/tell loop, evaluating batches at fidelity
// fid via Sweep, until budget evaluations are spent or the space is
// exhausted. Cache may be nil (uncached). Cache statistics accumulate into
// the frontier; evaluation/infeasibility counts are returned for the
// caller to attribute to the right phase. keepResults says whether each
// evaluation retains its *Result (the frontier needs it) or only its
// scores (all a screen needs, at a fraction of the memory).
func (e *explorer) search(ctx context.Context, strat explore.Strategy, cache *Cache, fid Fidelity, budget int, keepResults bool) (searchOutcome, error) {
	o, f := e.o, e.f
	// Size the evaluation list once: at most one entry per candidate, and
	// the budget may exceed the space. A budget far beyond any run's reach
	// grows the list by append past maxPreallocEvals.
	out := searchOutcome{evals: make([]evaluation, 0, min(int64(budget), e.space.Size(), maxPreallocEvals))}
	for gen := 1; out.evaluated < budget; gen++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out.gens = gen
		n := budget - out.evaluated
		if n > o.batch {
			n = o.batch
		}
		cands := strat.Ask(n)
		if len(cands) == 0 {
			break // space exhausted
		}
		batchBase := out.evaluated
		keys := make([][]float64, len(cands))

		// Materialize candidates; workload-axis failures are infeasible
		// without simulating.
		pts := make([]SweepPoint, 0, len(cands))
		ptCand := make([]int, 0, len(cands)) // sweep point -> candidate index
		preFailed := 0
		for i, c := range cands {
			label := e.space.Label(c)
			pt, err := e.space.ApplyTopology(e.topo, c)
			if err != nil {
				keys[i] = e.infKeys
				out.infeasible++
				preFailed++
				if o.progress != nil {
					o.progress(ExploreProgress{Generation: gen, Evaluated: batchBase + preFailed,
						Budget: budget, Point: label, Fidelity: fid, Err: err})
				}
				continue
			}
			pts = append(pts, SweepPoint{Name: label, Config: e.config(c, label), Topology: pt})
			ptCand = append(ptCand, i)
		}

		sweepOpts := []Option{WithParallelism(o.parallelism), WithCache(cache), WithFidelity(fid)}
		if o.progress != nil {
			evalBase, fn, g := batchBase+preFailed, o.progress, gen
			sweepOpts = append(sweepOpts, WithSweepProgress(func(p SweepPointProgress) {
				fn(ExploreProgress{Generation: g, Evaluated: evalBase + p.Done,
					Budget: budget, Point: p.Point, Fidelity: fid, Err: p.Err})
			}))
		}
		results, err := Sweep(ctx, pts, sweepOpts...)
		if err != nil {
			// Cancelled mid-batch: the batch is discarded so the partial
			// frontier stays deterministic.
			return out, err
		}
		for pi, sr := range results {
			ci := ptCand[pi]
			if sr.Err != nil {
				keys[ci] = e.infKeys
				out.infeasible++
				continue
			}
			f.CacheStats.Hits += sr.Result.CacheStats.Hits
			f.CacheStats.Misses += sr.Result.CacheStats.Misses
			raw, k, feasible := e.score(sr.Result)
			if !feasible {
				keys[ci] = e.infKeys
				out.infeasible++
				continue
			}
			keys[ci] = k
			ev := evaluation{
				label: sr.Point.Name, cand: append(Candidate(nil), cands[ci]...),
				raw: raw, keys: k, fidelity: fid,
			}
			if keepResults {
				ev.result = sr.Result
			}
			out.evals = append(out.evals, ev)
		}
		strat.Tell(cands, keys)
		out.evaluated += len(cands)
	}
	return out, nil
}

// config materializes a candidate's configuration; label names the run.
func (e *explorer) config(c Candidate, label string) Config {
	cfg := e.space.Apply(e.base, c)
	cfg.RunName = label
	return cfg
}

// score extracts the raw objective values and minimization-sense keys from
// a result; feasible is false when any objective is NaN.
func (e *explorer) score(r *Result) (raw, keys []float64, feasible bool) {
	objs := e.o.objectives
	raw = make([]float64, len(objs))
	keys = make([]float64, len(objs))
	for oi, obj := range objs {
		v := obj.Fn(r)
		raw[oi] = v
		if math.IsNaN(v) {
			return raw, keys, false
		}
		if obj.Maximize {
			v = -v
		}
		keys[oi] = v
	}
	return raw, keys, true
}

// promote selects the frontier-adjacent subset of the analytical screen —
// the exact analytical Pareto front, the PromoteTopK best candidates by
// lexicographic key rank, and every candidate within PromoteMargin of the
// front — and re-evaluates it at the accurate tier through one cached
// Sweep. Each returned evaluation carries the measured per-objective
// analytical-vs-accurate relative error.
func (e *explorer) promote(ctx context.Context, cache *Cache, screened []evaluation, screenGens int) ([]evaluation, error) {
	o, f := e.o, e.f
	if len(screened) == 0 {
		return nil, nil
	}
	vecs := make([][]float64, len(screened))
	for i := range screened {
		vecs[i] = screened[i].keys
	}
	front := explore.Front(vecs)
	chosen := make(map[int]bool, len(front))
	for _, i := range front {
		chosen[i] = true
	}
	if k := o.promoteTopK; k > 0 {
		// Rank every screened candidate by minimization keys, ties by
		// label, and take the K best.
		rank := make([]int, len(screened))
		for i := range rank {
			rank[i] = i
		}
		sort.SliceStable(rank, func(a, b int) bool {
			return lessEval(&screened[rank[a]], &screened[rank[b]])
		})
		if k > len(rank) {
			k = len(rank)
		}
		for _, i := range rank[:k] {
			chosen[i] = true
		}
	}
	if m := o.promoteMargin; m > 0 {
		// A candidate within relative margin m of the front survives
		// dominance after shrinking each key toward the ideal by m·|key|.
		shifted := make([]float64, len(e.o.objectives))
		for i, v := range vecs {
			if chosen[i] {
				continue
			}
			for j, k := range v {
				shifted[j] = k - m*math.Abs(k)
			}
			near := true
			for _, fi := range front {
				if explore.Dominates(vecs[fi], shifted) {
					near = false
					break
				}
			}
			if near {
				chosen[i] = true
			}
		}
	}
	// Deterministic promotion order: screen-evaluation order.
	promoted := make([]int, 0, len(chosen))
	for i := range screened {
		if chosen[i] {
			promoted = append(promoted, i)
		}
	}
	f.Promoted = len(promoted)
	f.Evaluated += len(promoted)

	pts := make([]SweepPoint, len(promoted))
	for pi, i := range promoted {
		sc := &screened[i]
		pt, err := e.space.ApplyTopology(e.topo, sc.cand)
		if err != nil {
			// The same candidate materialized during the screen; a failure
			// here means the topology axis is nondeterministic.
			return nil, fmt.Errorf("scalesim: promotion re-apply of %q failed: %w", sc.label, err)
		}
		pts[pi] = SweepPoint{Name: sc.label, Config: e.config(sc.cand, sc.label), Topology: pt}
	}
	sweepOpts := []Option{WithParallelism(o.parallelism), WithCache(cache), WithFidelity(o.fidelity)}
	if o.progress != nil {
		fn, g, total := o.progress, screenGens+1, len(pts)
		sweepOpts = append(sweepOpts, WithSweepProgress(func(p SweepPointProgress) {
			fn(ExploreProgress{Generation: g, Evaluated: p.Done,
				Budget: total, Point: p.Point, Fidelity: o.fidelity, Err: p.Err})
		}))
	}
	results, err := Sweep(ctx, pts, sweepOpts...)
	if err != nil {
		// Cancelled mid-promotion: discard the batch, deterministically.
		return nil, err
	}
	evals := make([]evaluation, 0, len(results))
	for pi, sr := range results {
		sc := &screened[promoted[pi]]
		if sr.Err != nil {
			f.Infeasible++
			continue
		}
		f.CacheStats.Hits += sr.Result.CacheStats.Hits
		f.CacheStats.Misses += sr.Result.CacheStats.Misses
		raw, k, feasible := e.score(sr.Result)
		if !feasible {
			f.Infeasible++
			continue
		}
		screenErr := make(map[string]float64, len(o.objectives))
		for oi, obj := range o.objectives {
			screenErr[obj.Name] = relError(raw[oi], sc.raw[oi])
		}
		evals = append(evals, evaluation{
			label: sc.label, cand: sc.cand,
			raw: raw, keys: k, result: sr.Result,
			fidelity: o.fidelity, screenErr: screenErr,
		})
	}
	return evals, nil
}

// relError is |accurate − analytical| normalized by |accurate|, guarding
// the accurate-is-zero case (then any nonzero analytical value is an
// error of 1).
func relError(accurate, analytical float64) float64 {
	if accurate == analytical {
		return 0
	}
	denom := math.Abs(accurate)
	if denom == 0 {
		return 1
	}
	return math.Abs(accurate-analytical) / denom
}

// lessEval orders evaluations by minimization-sense keys, ties by label —
// the deterministic order of frontier output and top-K ranking.
func lessEval(a, b *evaluation) bool {
	for k := range a.keys {
		if a.keys[k] != b.keys[k] {
			return a.keys[k] < b.keys[k]
		}
	}
	return a.label < b.label
}

// finishFrontier extracts the exact Pareto set from the feasible
// evaluations, prunes dominated points and sorts the survivors (by
// minimization-sense objective keys, then name) for deterministic output.
// Every evaluation it is given carries its Result.
func (e *explorer) finishFrontier(evals []evaluation) {
	f := e.f
	vecs := make([][]float64, len(evals))
	for i := range evals {
		vecs[i] = evals[i].keys
	}
	front := explore.Front(vecs)
	sort.SliceStable(front, func(a, b int) bool {
		return lessEval(&evals[front[a]], &evals[front[b]])
	})
	f.Points = f.Points[:0]
	for _, i := range front {
		ev := &evals[i]
		f.Points = append(f.Points, FrontierPoint{
			Name:        ev.label,
			Config:      ev.result.Config, // the candidate's configuration, as run
			AxisValues:  e.space.Values(ev.cand),
			Objectives:  ev.raw,
			Result:      ev.result,
			Fidelity:    ev.fidelity,
			ScreenError: ev.screenErr,
		})
	}
}

func splitCommaList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.ToLower(strings.TrimSpace(part)); p != "" {
			out = append(out, p)
		}
	}
	return out
}
