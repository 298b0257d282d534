package server

import (
	"net/http"
	"sort"
	"strconv"
	"time"

	"scalesim"
	"scalesim/internal/telemetry"
)

// MetricsRegistrar is optionally implemented by an Executor to fold its own
// metric families into GET /metrics. It replaces the old MetricsWriter
// splice: registered families render inside the same sorted Prometheus
// exposition as the server's own, instead of being appended verbatim.
type MetricsRegistrar interface {
	RegisterMetrics(reg *telemetry.Registry)
}

// jobStates enumerates every job state the scalesim_jobs gauge reports.
// Every state is always emitted, even at zero, so dashboards never see a
// series appear out of nowhere.
var jobStates = []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled}

// httpDurationBuckets spans sub-millisecond scrapes through multi-second
// report fetches.
var httpDurationBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// initMetrics builds the server's metric registry: every legacy hand-written
// /metrics family re-expressed as a scrape-time collector over the state
// that owns it, plus the HTTP request instruments the middleware drives.
func (s *Server) initMetrics() {
	reg := telemetry.NewRegistry()
	s.reg = reg

	reg.CounterFunc("scalesim_jobs_accepted_total", "Jobs accepted since server start.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.accepted)
	})
	reg.GaugeVecFunc("scalesim_jobs", "Jobs currently tracked, by state.", []string{"state"}, func() []telemetry.Sample {
		s.mu.Lock()
		states := map[JobState]int{}
		for _, j := range s.jobs {
			states[j.State()]++
		}
		s.mu.Unlock()
		samples := make([]telemetry.Sample, 0, len(jobStates))
		for _, st := range jobStates {
			samples = append(samples, telemetry.Sample{LabelValues: []string{string(st)}, Value: float64(states[st])})
		}
		return samples
	})
	reg.GaugeFunc("scalesim_queue_length", "Jobs queued and not yet taken by a worker.", func() float64 {
		return float64(len(s.queue))
	})
	reg.GaugeFunc("scalesim_draining", "Whether the server is draining (1) or accepting (0).", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.draining {
			return 1
		}
		return 0
	})
	reg.CounterFunc("scalesim_jobs_resumed_total", "Journaled jobs re-enqueued after a restart.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.resumed)
	})
	reg.GaugeFunc("scalesim_store_degraded", "Whether the persistent store detached itself after repeated I/O errors (1) or is healthy/absent (0).", func() float64 {
		if s.cache.StoreDegraded() {
			return 1
		}
		return 0
	})
	reg.CounterVecFunc("scalesim_faults_injected_total", "Faults injected by the active fault plan, by kind.", []string{"kind"}, func() []telemetry.Sample {
		if s.opts.FaultCounts == nil {
			return nil
		}
		counts := s.opts.FaultCounts()
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		samples := make([]telemetry.Sample, len(kinds))
		for i, k := range kinds {
			samples[i] = telemetry.Sample{LabelValues: []string{k}, Value: float64(counts[k])}
		}
		return samples
	})

	cacheStat := func(get func(scalesim.CacheStats) float64) func() float64 {
		return func() float64 { return get(s.cache.Stats()) }
	}
	reg.CounterFunc("scalesim_cache_hits_total",
		"Shared layer-cache lookup hits: one lookup per distinct layer shape per run (a run copies its repeated shapes without one), plus the layout stage's memo lookups.",
		cacheStat(func(cs scalesim.CacheStats) float64 { return float64(cs.Hits) }))
	reg.CounterFunc("scalesim_cache_misses_total",
		"Shared layer-cache lookup misses, counted like scalesim_cache_hits_total.",
		cacheStat(func(cs scalesim.CacheStats) float64 { return float64(cs.Misses) }))
	reg.CounterFunc("scalesim_cache_evictions_total", "Shared layer-cache evictions.",
		cacheStat(func(cs scalesim.CacheStats) float64 { return float64(cs.Evictions) }))
	reg.GaugeFunc("scalesim_cache_entries", "Shared layer-cache current entries.",
		cacheStat(func(cs scalesim.CacheStats) float64 { return float64(cs.Entries) }))
	reg.GaugeFunc("scalesim_cache_bytes", "Shared layer-cache accounted bytes.",
		cacheStat(func(cs scalesim.CacheStats) float64 { return float64(cs.Bytes) }))
	reg.CounterFunc("scalesim_cache_store_hits_total", "Memory misses answered by the persistent store tier.",
		cacheStat(func(cs scalesim.CacheStats) float64 { return float64(cs.StoreHits) }))
	reg.CounterFunc("scalesim_cache_store_misses_total", "Lookups that missed both memory and the store tier.",
		cacheStat(func(cs scalesim.CacheStats) float64 { return float64(cs.StoreMisses) }))

	// Store families sample only while a persistent store is attached,
	// matching the legacy writer which omitted them entirely otherwise.
	storeCounter := func(name, help string, get func(scalesim.StoreStats) float64) {
		reg.CounterVecFunc(name, help, nil, s.storeSamples(get))
	}
	storeGauge := func(name, help string, get func(scalesim.StoreStats) float64) {
		reg.GaugeVecFunc(name, help, nil, s.storeSamples(get))
	}
	storeGauge("scalesim_store_entries", "Persistent store live entries.",
		func(ss scalesim.StoreStats) float64 { return float64(ss.Entries) })
	storeGauge("scalesim_store_log_bytes", "Persistent store log size.",
		func(ss scalesim.StoreStats) float64 { return float64(ss.LogBytes) })
	storeCounter("scalesim_store_hits_total", "Persistent store lookup hits since open.",
		func(ss scalesim.StoreStats) float64 { return float64(ss.Hits) })
	storeCounter("scalesim_store_misses_total", "Persistent store lookup misses since open.",
		func(ss scalesim.StoreStats) float64 { return float64(ss.Misses) })
	storeCounter("scalesim_store_put_bytes_total", "Payload bytes appended to the store since open.",
		func(ss scalesim.StoreStats) float64 { return float64(ss.PutBytes) })
	storeCounter("scalesim_store_io_errors_total", "Persistent store I/O errors since open.",
		func(ss scalesim.StoreStats) float64 { return float64(ss.IOErrors) })
	storeGauge("scalesim_store_snapshot_age_seconds", "Seconds since the last index snapshot (-1 when none).",
		func(ss scalesim.StoreStats) float64 {
			if ss.SnapshotUnix <= 0 {
				return -1
			}
			return float64(time.Now().Unix() - ss.SnapshotUnix)
		})

	s.httpInFlight = reg.Gauge("scalesim_http_in_flight_requests", "HTTP requests currently being served.")
	s.httpRequests = reg.CounterVec("scalesim_http_requests_total", "HTTP requests served, by route and status code.", "route", "code")
	s.httpDuration = reg.HistogramVec("scalesim_http_request_duration_seconds", "HTTP request latency by route.", httpDurationBuckets, "route")
	s.jobsCompleted = reg.CounterVec("scalesim_jobs_completed_total", "Jobs reaching a terminal state, by state.", "state")
	s.exploreEvals = reg.CounterVec("scalesim_explore_evals_total", "Explore candidate evaluations, by simulation fidelity tier.", "fidelity")

	if mr, ok := s.opts.Executor.(MetricsRegistrar); ok {
		mr.RegisterMetrics(reg)
	}
}

// storeSamples adapts a StoreStats accessor into a collector that emits one
// unlabeled sample when a store is attached and none otherwise.
func (s *Server) storeSamples(get func(scalesim.StoreStats) float64) func() []telemetry.Sample {
	return func() []telemetry.Sample {
		ss, ok := s.cache.StoreStats()
		if !ok {
			return nil
		}
		return []telemetry.Sample{{Value: get(ss)}}
	}
}

// statusRecorder captures the response status for instrumentation. It
// passes Flush through so the SSE event stream keeps flushing frames.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the API mux with per-route request metrics and access
// logging. The route label is the mux pattern (not the raw URL), so job IDs
// do not explode the label space.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.httpInFlight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.httpInFlight.Add(-1)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		elapsed := time.Since(start)
		s.httpRequests.With(route, strconv.Itoa(rec.code)).Inc()
		s.httpDuration.With(route).Observe(elapsed.Seconds())
		s.log.Debug("http request",
			"method", r.Method, "path", r.URL.Path, "route", route,
			"status", rec.code, "elapsed", elapsed)
	})
}
