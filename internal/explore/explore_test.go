package explore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/topology"
)

// testSpace builds a small three-axis space: 4×3×2 = 24 points.
func testSpace(t *testing.T) Space {
	t.Helper()
	arr, err := Pow2("array", 8, 64, func(c *config.Config, v int) { c.ArrayRows, c.ArrayCols = v, v })
	if err != nil {
		t.Fatal(err)
	}
	df, err := Enum("dataflow", []string{"os", "ws", "is"}, func(c *config.Config, s string) {
		d, _ := config.ParseDataflow(s)
		c.Dataflow = d
	})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := IntRange("bandwidth", 10, 20, 10, func(c *config.Config, v int) { c.BandwidthWords = v })
	if err != nil {
		t.Fatal(err)
	}
	return Space{arr, df, bw}
}

func TestSpaceBasics(t *testing.T) {
	s := testSpace(t)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Size(); got != 24 {
		t.Fatalf("Size = %d, want 24", got)
	}
	c := Candidate{1, 2, 0}
	cfg := s.Apply(config.Default(), c)
	if cfg.ArrayRows != 16 || cfg.ArrayCols != 16 {
		t.Errorf("array = %dx%d, want 16x16", cfg.ArrayRows, cfg.ArrayCols)
	}
	if cfg.Dataflow != config.InputStationary {
		t.Errorf("dataflow = %v, want is", cfg.Dataflow)
	}
	if cfg.BandwidthWords != 10 {
		t.Errorf("bandwidth = %d, want 10", cfg.BandwidthWords)
	}
	if got, want := s.Label(c), "array=16,dataflow=is,bandwidth=10"; got != want {
		t.Errorf("Label = %q, want %q", got, want)
	}
	if got, want := s.Values(c), []string{"16", "is", "10"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Values = %v, want %v", got, want)
	}
	if got, want := s.Names(), []string{"array", "dataflow", "bandwidth"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
}

func TestSpaceValidateErrors(t *testing.T) {
	if err := (Space{}).Validate(); err == nil {
		t.Error("empty space: want error")
	}
	a, err := Pow2("array", 8, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := (Space{a, a}).Validate(); err == nil {
		t.Error("duplicate axis: want error")
	}
	if err := (Space{{}}).Validate(); err == nil {
		t.Error("zero-value axis: want error")
	}
}

func TestAxisConstructorErrors(t *testing.T) {
	cases := []func() (Axis, error){
		func() (Axis, error) { return IntRange("", 1, 2, 1, nil) },
		func() (Axis, error) { return IntRange("a=b", 1, 2, 1, nil) },
		func() (Axis, error) { return IntRange("x", 2, 1, 1, nil) },
		func() (Axis, error) { return IntRange("x", 1, 2, 0, nil) },
		func() (Axis, error) { return Pow2("x", 0, 8, nil) },
		func() (Axis, error) { return Pow2("x", 65, 127, nil) },
		func() (Axis, error) { return Enum("x", nil, nil) },
		func() (Axis, error) { return Enum("x", []string{"a", "a"}, nil) },
		func() (Axis, error) { return Enum("x", []string{" "}, nil) },
	}
	for i, fn := range cases {
		if _, err := fn(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestPow2Values(t *testing.T) {
	a, err := Pow2("x", 8, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for i := 0; i < a.Len(); i++ {
		got = append(got, a.Value(i).Int)
	}
	if want := []int{8, 16, 32, 64}; !reflect.DeepEqual(got, want) {
		t.Fatalf("values = %v, want %v", got, want)
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{1, 3}, true},
		{[]float64{1, 1}, []float64{1, 1}, false},
		{[]float64{1, 3}, []float64{2, 2}, false},
		{[]float64{2, 2}, []float64{1, 1}, false},
		{[]float64{1}, []float64{2}, true},
	}
	for i, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("case %d: Dominates(%v,%v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

// bruteFrontier is the oracle: keep exactly the vectors no other vector
// dominates, computed with an independent double loop over Dominates'
// definition written out longhand.
func bruteFrontier(vecs [][]float64) map[int]bool {
	out := make(map[int]bool)
	for i := range vecs {
		dominated := false
		for j := range vecs {
			if i == j {
				continue
			}
			noWorse, strictlyBetter := true, false
			for k := range vecs[i] {
				if vecs[j][k] > vecs[i][k] {
					noWorse = false
				}
				if vecs[j][k] < vecs[i][k] {
					strictlyBetter = true
				}
			}
			if noWorse && strictlyBetter {
				dominated = true
				break
			}
		}
		if !dominated {
			out[i] = true
		}
	}
	return out
}

// TestFrontMatchesParetoIndices pins Front, the one production Pareto
// routine, to the brute-force oracle: same index set, in input order.
func TestFrontMatchesParetoIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		n := rng.Intn(120)
		dims := 1 + rng.Intn(4)
		vecs := make([][]float64, n)
		for i := range vecs {
			v := make([]float64, dims)
			for k := range v {
				// A coarse value grid forces ties and duplicates, the cases
				// where a fast front extraction is most likely to diverge.
				v[k] = float64(rng.Intn(4))
			}
			vecs[i] = v
		}
		got := Front(vecs)
		want := bruteFrontier(vecs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: Front size %d, oracle %d (vecs %v)", trial, len(got), len(want), vecs)
		}
		for k, i := range got {
			if !want[i] {
				t.Fatalf("trial %d: index %d not in oracle frontier %v", trial, i, want)
			}
			if k > 0 && got[k-1] >= i {
				t.Fatalf("trial %d: Front %v not in input order", trial, got)
			}
		}
	}
}

func TestGridEnumeratesAllOnce(t *testing.T) {
	s := testSpace(t)
	g := NewGrid(s)
	seen := make(map[string]bool)
	var total int
	for {
		batch := g.Ask(5)
		if len(batch) == 0 {
			break
		}
		for _, c := range batch {
			if seen[c.key()] {
				t.Fatalf("duplicate candidate %v", c)
			}
			seen[c.key()] = true
			total++
		}
	}
	if total != 24 {
		t.Fatalf("grid enumerated %d points, want 24", total)
	}
	// First two candidates follow lexicographic order, last axis fastest.
	g2 := NewGrid(s)
	first := g2.Ask(2)
	if !reflect.DeepEqual(first[0], Candidate{0, 0, 0}) || !reflect.DeepEqual(first[1], Candidate{0, 0, 1}) {
		t.Fatalf("grid order = %v", first)
	}
}

func TestRandomExhaustsWithoutDuplicates(t *testing.T) {
	s := testSpace(t)
	r := NewRandom(s, 42)
	seen := make(map[string]bool)
	var order []string
	for {
		batch := r.Ask(7)
		if len(batch) == 0 {
			break
		}
		for _, c := range batch {
			if seen[c.key()] {
				t.Fatalf("duplicate candidate %v", c)
			}
			seen[c.key()] = true
			order = append(order, c.key())
		}
	}
	if len(order) != 24 {
		t.Fatalf("random drew %d points, want 24", len(order))
	}
	// Same seed reproduces the exact sequence.
	r2 := NewRandom(s, 42)
	var order2 []string
	for {
		batch := r2.Ask(7)
		if len(batch) == 0 {
			break
		}
		for _, c := range batch {
			order2 = append(order2, c.key())
		}
	}
	if !reflect.DeepEqual(order, order2) {
		t.Fatal("same seed produced different sequences")
	}
}

// syntheticObjs scores a candidate by distance to a target corner, so the
// evolutionary strategy has a gradient to climb.
func syntheticObjs(s Space, c Candidate) []float64 {
	var d float64
	for i, v := range c {
		d += float64((s[i].Len() - 1 - v) * (s[i].Len() - 1 - v))
	}
	return []float64{d}
}

func TestEvolutionDeterministicAndDedup(t *testing.T) {
	s := testSpace(t)
	run := func() []string {
		e := NewEvolution(s, 99)
		seen := make(map[string]bool)
		var order []string
		for gen := 0; gen < 6; gen++ {
			batch := e.Ask(4)
			if len(batch) == 0 {
				break
			}
			objs := make([][]float64, len(batch))
			for i, c := range batch {
				if seen[c.key()] {
					t.Fatalf("duplicate candidate %v", c)
				}
				seen[c.key()] = true
				order = append(order, c.key())
				objs[i] = syntheticObjs(s, c)
			}
			e.Tell(batch, objs)
		}
		return order
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different evolution sequences")
	}
	if len(a) != 24 {
		t.Fatalf("evolution drew %d points over 6 generations of 4, want 24", len(a))
	}
}

func TestEvolutionSurvivesInfeasibleArchive(t *testing.T) {
	s := testSpace(t)
	e := NewEvolution(s, 1)
	batch := e.Ask(4)
	objs := make([][]float64, len(batch))
	for i := range objs {
		objs[i] = []float64{math.Inf(1)}
	}
	e.Tell(batch, objs)
	if next := e.Ask(4); len(next) == 0 {
		t.Fatal("no candidates after an all-infeasible generation")
	}
}

func TestNewStrategy(t *testing.T) {
	s := testSpace(t)
	for kind, want := range map[string]string{
		"grid": "grid", "random": "random", "evolve": "evolve", "auto": "grid",
	} {
		st, err := NewStrategy(kind, s, 1, 100) // budget 100 ≥ 24 ⇒ auto = grid
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if st.Name() != want {
			t.Errorf("%s: Name = %s, want %s", kind, st.Name(), want)
		}
	}
	if st, _ := NewStrategy("auto", s, 1, 10); st.Name() != "random" {
		t.Errorf("auto with tight budget = %s, want random", st.Name())
	}
	if _, err := NewStrategy("anneal", s, 1, 10); err == nil {
		t.Error("unknown strategy: want error")
	}
}

func TestParseSpace(t *testing.T) {
	s, err := ParseSpace("array=8..32:pow2; dataflow=os,ws; channels=1..4:step3")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 || s.Size() != 3*2*2 {
		t.Fatalf("parsed %d axes, size %d", len(s), s.Size())
	}
	cfg := s.Apply(config.Default(), Candidate{2, 1, 1})
	if cfg.ArrayRows != 32 || cfg.Dataflow != config.WeightStationary {
		t.Errorf("apply: rows=%d dataflow=%v", cfg.ArrayRows, cfg.Dataflow)
	}
	if !cfg.Memory.Enabled || cfg.Memory.Channels != 4 {
		t.Errorf("channels axis should enable the memory model: %+v", cfg.Memory)
	}
}

func TestParseAxisIntList(t *testing.T) {
	ax, err := ParseAxis("channels=1,2,6")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Len() != 3 || ax.Value(2).Int != 6 {
		t.Fatalf("axis = %d values, last %v", ax.Len(), ax.Value(ax.Len()-1))
	}
}

func TestParseAxisDRAMTech(t *testing.T) {
	ax, err := ParseAxis("dram_tech=DDR4,HBM2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	ax.apply(&cfg, ax.values[1])
	if !cfg.Memory.Enabled || cfg.Memory.Technology != "HBM2" {
		t.Fatalf("tech axis applied %+v", cfg.Memory)
	}
}

func TestParseAxisErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus_knob=1..4",      // unknown knob
		"array",                // no '='
		"array=",               // empty domain
		"array=4..1",           // empty range
		"array=8..64:step0",    // bad step
		"array=8..64:fib",      // unknown modifier
		"array=a..b",           // not integers
		"array=0..8",           // below knob minimum
		"channels=1,1",         // duplicate value
		"dataflow=os,vertical", // unknown enum value
		"dram_tech=SDRAM",      // unknown technology
		"sparsity=2:4:6",       // invalid N:M
	} {
		if _, err := ParseAxis(spec); err == nil {
			t.Errorf("ParseAxis(%q): want error", spec)
		}
	}
}

func TestSparsityAxisTransformsTopology(t *testing.T) {
	ax, err := ParseAxis("sparsity=dense,2:4")
	if err != nil {
		t.Fatal(err)
	}
	s := Space{ax}
	topo := &topology.Topology{Name: "t", Layers: []topology.Layer{
		{Name: "l0", Kind: topology.GEMM, M: 8, N: 8, K: 8},
	}}
	dense, err := s.ApplyTopology(topo, Candidate{0})
	if err != nil {
		t.Fatal(err)
	}
	if dense != topo {
		t.Error("dense setting should return the input topology unchanged")
	}
	sp, err := s.ApplyTopology(topo, Candidate{1})
	if err != nil {
		t.Fatal(err)
	}
	if sp == topo || sp.Layers[0].Sparsity.Dense() {
		t.Errorf("sparse setting should copy and annotate: %+v", sp.Layers[0].Sparsity)
	}
	if !topo.Layers[0].Sparsity.Dense() {
		t.Error("input topology was mutated")
	}
	cfg := s.Apply(config.Default(), Candidate{1})
	if !cfg.Sparsity.Enabled {
		t.Error("sparse setting should enable cfg.Sparsity")
	}
	cfg = s.Apply(config.Default(), Candidate{0})
	if cfg.Sparsity.Enabled {
		t.Error("dense setting should not enable cfg.Sparsity")
	}
}

func TestKnownAxisNames(t *testing.T) {
	names := KnownAxisNames()
	if len(names) == 0 {
		t.Fatal("no known axes")
	}
	for _, want := range []string{"array", "dataflow", "dram_channels", "dram_tech", "sparsity"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("KnownAxisNames missing %q (have %v)", want, names)
		}
	}
}

func TestCandidateAtRoundTrip(t *testing.T) {
	s := testSpace(t)
	seen := make(map[string]bool)
	for i := int64(0); i < s.Size(); i++ {
		c := s.candidateAt(i)
		if seen[c.key()] {
			t.Fatalf("candidateAt(%d) repeats %v", i, c)
		}
		seen[c.key()] = true
		for ax := range c {
			if c[ax] < 0 || c[ax] >= s[ax].Len() {
				t.Fatalf("candidateAt(%d) out of range: %v", i, c)
			}
		}
	}
}

func TestLargeIntRangeRejected(t *testing.T) {
	if _, err := IntRange("x", 1, 10_000_000, 1, nil); err == nil {
		t.Error("want error for oversized axis")
	}
}

func BenchmarkFront(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vecs := make([][]float64, 256)
	for i := range vecs {
		vecs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Front(vecs); len(got) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

func TestEvolutionMutateStaysInRange(t *testing.T) {
	s := testSpace(t)
	e := NewEvolution(s, 5)
	parent := Candidate{0, 0, 0}
	for i := 0; i < 200; i++ {
		c := e.mutate(parent)
		if c == nil {
			t.Fatal("mutate returned nil for a multi-valued space")
		}
		diff := 0
		for ax := range c {
			if c[ax] < 0 || c[ax] >= s[ax].Len() {
				t.Fatalf("mutation out of range: %v", c)
			}
			if c[ax] != parent[ax] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("mutation changed %d axes, want 1: %v -> %v", diff, parent, c)
		}
	}
}

func ExampleParseSpace() {
	s, _ := ParseSpace("array=16..64:pow2;dataflow=os,ws")
	fmt.Println(s.Size(), s.Label(Candidate{1, 0}))
	// Output: 6 array=32,dataflow=os
}

// FuzzParseSpace feeds arbitrary specs to ParseSpace (and through it
// ParseAxis). It must never panic, and a space it accepts must round-trip:
// rendering every axis as an explicit value list parses back to the same
// axes, values and Size.
func FuzzParseSpace(f *testing.F) {
	for _, seed := range []string{
		"array=8..32:pow2; dataflow=os,ws; channels=1..4:step3",
		"array_rows=4..103; array_cols=4..103; bandwidth=1..10",
		"channels=1..4:pow2; dram_tech=DDR4,HBM2",
		"bandwidth=10,20,40",
		"array=16..64:pow2;dataflow=os,ws",
		"dataflow=os,os",
		"array=0..4",
		"channels=1..4:step0",
		"array_rows=9223372036854775806..9223372036854775807",
		"=;;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		space, err := ParseSpace(spec)
		if err != nil {
			return
		}
		parts := make([]string, len(space))
		for i := range space {
			vals := make([]string, space[i].Len())
			for j := range vals {
				vals[j] = space[i].Value(j).String()
			}
			parts[i] = space[i].Name() + "=" + strings.Join(vals, ",")
		}
		rendered := strings.Join(parts, ";")
		again, err := ParseSpace(rendered)
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", spec, rendered, err)
		}
		if again.Size() != space.Size() {
			t.Fatalf("%q: size %d, its rendering %q: %d", spec, space.Size(), rendered, again.Size())
		}
		for i := range space {
			if again[i].Name() != space[i].Name() || !reflect.DeepEqual(again[i].values, space[i].values) {
				t.Fatalf("%q: axis %d is %s=%v, after a round trip %s=%v",
					spec, i, space[i].Name(), space[i].values, again[i].Name(), again[i].values)
			}
		}
	})
}
