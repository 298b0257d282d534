package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"scalesim/internal/telemetry"
)

// legacyMetricFamilies is every family the old hand-written /metrics
// emitted unconditionally. The registry-backed endpoint must keep exposing
// all of them under their original names.
var legacyMetricFamilies = []string{
	"scalesim_jobs_accepted_total",
	"scalesim_jobs",
	"scalesim_queue_length",
	"scalesim_draining",
	"scalesim_cache_hits_total",
	"scalesim_cache_misses_total",
	"scalesim_cache_evictions_total",
	"scalesim_cache_entries",
	"scalesim_cache_bytes",
	"scalesim_cache_store_hits_total",
	"scalesim_cache_store_misses_total",
}

// TestServerMetricsLegacyCompat asserts every family the old hand-rolled
// writer exposed still appears (with HELP and TYPE), the whole exposition
// parses as Prometheus text format, and the new HTTP-layer families are
// present alongside them.
func TestServerMetricsLegacyCompat(t *testing.T) {
	_, ts := newTestServer(t, 2)
	job := enqueueJob(t, ts.URL, "/v1/runs", smallRunBody)
	if done := waitJob(t, ts.URL, job.ID); done.State != string(JobDone) {
		t.Fatalf("job finished %s", done.State)
	}

	code, b := getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	if err := telemetry.CheckExposition(b); err != nil {
		t.Fatalf("exposition does not parse as Prometheus text format: %v\n%s", err, b)
	}
	metrics := string(b)
	families := append([]string(nil), legacyMetricFamilies...)
	families = append(families,
		// Store families now advertise HELP/TYPE even without a store
		// attached (samples only appear once one is).
		"scalesim_store_entries",
		"scalesim_store_hits_total",
		"scalesim_store_snapshot_age_seconds",
		// New HTTP and lifecycle instrumentation.
		"scalesim_http_requests_total",
		"scalesim_http_request_duration_seconds",
		"scalesim_http_in_flight_requests",
		"scalesim_jobs_completed_total",
		// Robustness instrumentation: journal resume, store degradation
		// and injected-fault accounting (series appear only with an active
		// fault plan, the family is always advertised).
		"scalesim_jobs_resumed_total",
		"scalesim_store_degraded",
		"scalesim_store_io_errors_total",
		"scalesim_faults_injected_total",
	)
	for _, fam := range families {
		if !strings.Contains(metrics, "# TYPE "+fam+" ") {
			t.Errorf("metrics missing TYPE line for %s", fam)
		}
		if !strings.Contains(metrics, "# HELP "+fam+" ") {
			t.Errorf("metrics missing HELP line for %s", fam)
		}
	}
	// Legacy exact-value lines CI and operators grep for: integers must
	// render without an exponent or decimal point.
	for _, want := range []string{
		"scalesim_jobs_accepted_total 1",
		`scalesim_jobs{state="done"} 1`,
		"scalesim_draining 0",
		`scalesim_jobs_completed_total{state="done"} 1`,
		"scalesim_jobs_resumed_total 0",
		"scalesim_store_degraded 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	// The scrape itself is instrumented: per-route histogram series with
	// the mux pattern as the label, not the raw URL.
	if !strings.Contains(metrics, `route="POST /v1/runs"`) {
		t.Errorf("metrics missing per-route series for POST /v1/runs:\n%s", metrics)
	}
}

// TestServerSSEOrderingParallel stresses the event streams with several
// concurrent multi-layer jobs across parallel shards: every stream must
// deliver monotonically non-decreasing progress, a queued-before-running
// state order, and exactly one terminal event, last.
func TestServerSSEOrderingParallel(t *testing.T) {
	_, ts := newTestServer(t, 4)
	const jobs = 4
	ids := make([]string, jobs)
	for i := range ids {
		ids[i] = enqueueJob(t, ts.URL, "/v1/runs", smallRunBody).ID
	}

	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
			if err != nil {
				t.Errorf("job %s: %v", id, err)
				return
			}
			defer resp.Body.Close()
			var (
				events    int
				lastDone  = -1
				sawDone   bool
				afterDone int
			)
			scanner := bufio.NewScanner(resp.Body)
			for scanner.Scan() {
				line := scanner.Text()
				switch {
				case line == "event: done":
					sawDone = true
				case strings.HasPrefix(line, "data: "):
					events++
					var dto JobDTO
					if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &dto); err != nil {
						t.Errorf("job %s: bad event payload: %v", id, err)
						return
					}
					if dto.ID != id {
						t.Errorf("job %s: event for %s on its stream", id, dto.ID)
					}
					if dto.Progress.Done < lastDone {
						t.Errorf("job %s: progress went backwards: %d after %d", id, dto.Progress.Done, lastDone)
					}
					lastDone = dto.Progress.Done
					if sawDone {
						afterDone++
						if JobState(dto.State) != JobDone {
							t.Errorf("job %s: terminal event state %q", id, dto.State)
						}
						return
					}
				}
			}
			t.Errorf("job %s: stream ended without a done event after %d events (scan err: %v, after-done %d)",
				id, events, scanner.Err(), afterDone)
		}(id)
	}
	wg.Wait()

	for _, id := range ids {
		if done := waitJob(t, ts.URL, id); done.State != string(JobDone) {
			t.Fatalf("job %s finished %s", id, done.State)
		}
	}
}

// TestServerMetricsQueueLength checks the queue gauge counts jobs waiting
// for a worker, not the one a worker holds.
func TestServerMetricsQueueLength(t *testing.T) {
	s, ts := newTestServer(t, 1)
	a, release := blockingJob(t, s)
	defer close(release)
	waitState(t, a, JobRunning)
	quickJob(t, s)
	code, b := getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	if want := "\nscalesim_queue_length 1\n"; !strings.Contains(string(b), want) {
		t.Errorf("metrics missing %q", want)
	}
}
