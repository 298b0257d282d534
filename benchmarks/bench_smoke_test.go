package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {20, 1}, {50, 3}, {99, 5}, {100, 5}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", vals, c.p, got, c.want)
		}
	}
	hundred := make([]float64, 200)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 99); got != 198 {
		t.Errorf("p99 of 1..200 = %v, want 198 (two samples beyond it)", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the rule the driver applies to ten runs.
func TestQuartilesMatchPython(t *testing.T) {
	ten := []float64{2.40, 2.41, 2.43, 2.44, 2.46, 2.47, 2.49, 2.52, 2.57, 2.76}
	q1, q3 := quartiles(ten)
	if math.Abs(q1-2.425) > 1e-12 || math.Abs(q3-2.5325) > 1e-12 {
		t.Errorf("quartiles = %v, %v, want 2.425, 2.5325", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles of 1..4 = %v, %v, want 1.25, 3.75", q1, q3)
	}
	if got, want := spread(ten), (2.5325-2.425)/2.465; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestSelfTimes checks the ledger's arithmetic: a span's self time is its
// duration minus what its children cover, overlapping children counted
// once and children clipped to the parent.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "run", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "b", Start: 30 * ms, End: 60 * ms, Parent: 0},    // overlaps a by 10 ms
		{Name: "c", Start: 90 * ms, End: 120 * ms, Parent: 0},   // runs 20 ms past the parent
		{Name: "leaf", Start: 12 * ms, End: 20 * ms, Parent: 1}, // grandchild: only a's concern
		{Name: "open", Start: 50 * ms, End: -1, Parent: 0},      // never closed: ignored
	}
	self := selfTimes(spans)
	want := []time.Duration{40 * ms, 22 * ms, 30 * ms, 30 * ms, 8 * ms, 0}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	if got := total(spans, "a") + total(spans, "open"); got != 30*ms {
		t.Errorf("total = %v, want 30ms", got)
	}
	if got := totalSelf(spans, "run"); got != 40*ms {
		t.Errorf("totalSelf(run) = %v, want 40ms", got)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1)
	r.end(id)
	r.add("y", id, time.Now(), time.Now())
}

func TestVerdict(t *testing.T) {
	lowerBetter := metricDef{Name: "wall_s", Better: lower, Bound: 0.10}
	higherBetter := metricDef{Name: "work_per_s", Better: higher, Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lowerBetter, steady, steady, "ok"},
		{"slower", lowerBetter, steady, []float64{1.20, 1.21, 1.19, 1.20}, "REGRESSED"},
		{"faster", lowerBetter, steady, []float64{0.80, 0.81, 0.79, 0.80}, "improved"},
		{"less work", higherBetter, steady, []float64{0.80, 0.81, 0.79, 0.80}, "REGRESSED"},
		{"more work", higherBetter, steady, []float64{1.20, 1.21, 1.19, 1.20}, "improved"},
		{"noisy", lowerBetter, steady, []float64{0.8, 1.3, 1.0, 1.2}, "unresolved"},
		{"noisy but all better", lowerBetter, steady, []float64{0.5, 0.9, 0.6, 0.8}, "improved"},
		{"gain within bound", lowerBetter, steady, []float64{0.95, 0.96, 0.94, 0.95}, "ok"},
		{"exact same", metricDef{exact: true}, []float64{7}, []float64{7}, "identical"},
		{"exact off", metricDef{exact: true}, []float64{7}, []float64{8}, "DIFFERS"},
		{"ungated", metricDef{Name: "sram.simulate_ms", Better: lower}, steady, steady, ""},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestContractFile pins BENCHMARK.json to the tables in contract.go and
// checks the limits the driver enforces before a single run.
func TestContractFile(t *testing.T) {
	var want bytes.Buffer
	if err := writeContract(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash benchmarks/run.sh -contract > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want at most 16 and 128", len(endToEnd), len(perLayer))
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) || d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %+v is outside the contract's limits", d)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != lower || d.Bound == 0 {
		t.Errorf("first end-to-end metric = %+v, want setup_s, bounded, lower-is-better, in s", d)
	}
}

// TestSmokeAllWorkloads runs every workload, timed and traced, on shrunken
// shapes: outputs must check out and every declared metric must be
// reported. It asserts nothing about timing.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.Name, func(t *testing.T) {
			o := options{workload: def.Name, seed: 2, seconds: 0.05, scale: 0.1, workdir: t.TempDir()}
			for trace, defs := range [][]metricDef{endToEnd, perLayer} {
				o.trace = trace
				r, err := runOne(o)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("trace %d: result %+v, want correct with no failures", trace, r)
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("trace %d: %d metrics reported, %d declared", trace, len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := r.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("trace %d: metric %s = %+v (reported %v)", trace, d.Name, v, ok)
					}
					if trace == 0 && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
					}
				}
				if _, err := json.Marshal(r); err != nil {
					t.Errorf("trace %d: result does not marshal: %v", trace, err)
				}
			}
		})
	}
}

// TestGoldenCoversEveryWorkload keeps golden/seed1.json in step with the
// workload list; the goldens themselves are checked by every seed-1 run.
func TestGoldenCoversEveryWorkload(t *testing.T) {
	var golden map[string]runOutputs
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	for _, def := range workloadDefs {
		if g, ok := golden[def.Name]; !ok || len(g.SHA256) != 64 || g.Cycles == 0 {
			t.Errorf("golden entry of %s = %+v", def.Name, g)
		}
	}
	if len(golden) != len(workloadDefs) {
		t.Errorf("golden has %d entries, %d workloads", len(golden), len(workloadDefs))
	}
}
