package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scalesim"
)

// newTestServer boots a job server on an httptest listener with a private
// cache (so cache-hit assertions are not polluted by other tests).
func newTestServer(t *testing.T, shards int) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{Shards: shards, QueueDepth: 16, Cache: scalesim.NewCache(0, 0)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	})
	return s, ts
}

// smallRunBody is an 8-layer workload with two distinct GEMM shapes, so a
// cached re-run has both hits (repeats) and a deterministic miss count.
const smallRunBody = `{
  "config": {"preset": "default"},
  "topology": {"name": "mini", "layers": [
    {"name": "a0", "kind": "gemm", "m": 64, "n": 48, "k": 32},
    {"name": "b0", "kind": "gemm", "m": 48, "n": 64, "k": 16},
    {"name": "a1", "kind": "gemm", "m": 64, "n": 48, "k": 32},
    {"name": "b1", "kind": "gemm", "m": 48, "n": 64, "k": 16},
    {"name": "a2", "kind": "gemm", "m": 64, "n": 48, "k": 32},
    {"name": "b2", "kind": "gemm", "m": 48, "n": 64, "k": 16},
    {"name": "a3", "kind": "gemm", "m": 64, "n": 48, "k": 32},
    {"name": "b3", "kind": "gemm", "m": 48, "n": 64, "k": 16}
  ]}
}`

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// enqueueJob posts a job body and returns its accepted DTO.
func enqueueJob(t *testing.T, base, path, body string) JobDTO {
	t.Helper()
	code, b := postJSON(t, base+path, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST %s = %d, want 202; body: %s", path, code, b)
	}
	var dto JobDTO
	if err := json.Unmarshal(b, &dto); err != nil {
		t.Fatal(err)
	}
	if dto.ID == "" || dto.State != string(JobQueued) {
		t.Fatalf("accepted job %+v missing id or queued state", dto)
	}
	return dto
}

// waitJob polls the status endpoint until the job is terminal.
func waitJob(t *testing.T, base, id string) JobDTO {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, b := getJSON(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s = %d; body: %s", id, code, b)
		}
		var dto JobDTO
		if err := json.Unmarshal(b, &dto); err != nil {
			t.Fatal(err)
		}
		if JobState(dto.State).Terminal() {
			return dto
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, dto.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetchReports returns the raw reports payload of a done job.
func fetchReports(t *testing.T, base, id string) []byte {
	t.Helper()
	code, b := getJSON(t, base+"/v1/jobs/"+id+"/reports")
	if code != http.StatusOK {
		t.Fatalf("GET reports %s = %d; body: %s", id, code, b)
	}
	return b
}

// TestServerRunRoundTrip drives the basic lifecycle: accept, poll, fetch
// reports, and cross-checks the payload against a direct facade run.
func TestServerRunRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, 2)
	job := enqueueJob(t, ts.URL, "/v1/runs", smallRunBody)
	done := waitJob(t, ts.URL, job.ID)
	if done.State != string(JobDone) {
		t.Fatalf("job finished %s (%s), want done", done.State, done.Error)
	}
	if done.Progress.Done != 8 || done.Progress.Total != 8 {
		t.Errorf("progress %+v, want 8/8", done.Progress)
	}

	var payload RunReportsDTO
	if err := json.Unmarshal(fetchReports(t, ts.URL, job.ID), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Kind != "run" || len(payload.Reports) == 0 {
		t.Fatalf("payload kind=%q with %d reports", payload.Kind, len(payload.Reports))
	}

	// The compute report must match a direct in-process run byte for byte.
	var req RunRequest
	if err := decodeRequest([]byte(smallRunBody), &req); err != nil {
		t.Fatal(err)
	}
	cfg, err := DecodeConfig(req.Config)
	if err != nil {
		t.Fatal(err)
	}
	topo, _, err := req.Topology.ToTopology()
	if err != nil {
		t.Fatal(err)
	}
	res, err := scalesim.New(cfg).Run(context.Background(), topo)
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderReportSet(res.Reports())
	if err != nil {
		t.Fatal(err)
	}
	if len(payload.Reports) != len(want) {
		t.Fatalf("server rendered %d reports, facade %d", len(payload.Reports), len(want))
	}
	for i := range want {
		if payload.Reports[i] != want[i] {
			t.Errorf("report %s differs between server and direct run", want[i].Name)
		}
	}
}

// TestServerIdenticalJobsByteIdenticalReports is the service determinism
// contract: identical jobs return byte-identical report payloads at any
// shard count, and the second identical job is served from the warm cache.
func TestServerIdenticalJobsByteIdenticalReports(t *testing.T) {
	payloads := map[int][]byte{}
	for _, shards := range []int{1, 4} {
		_, ts := newTestServer(t, shards)
		first := enqueueJob(t, ts.URL, "/v1/runs", smallRunBody)
		firstDone := waitJob(t, ts.URL, first.ID)
		if firstDone.State != string(JobDone) {
			t.Fatalf("first job %s (%s)", firstDone.State, firstDone.Error)
		}
		second := enqueueJob(t, ts.URL, "/v1/runs", smallRunBody)
		secondDone := waitJob(t, ts.URL, second.ID)
		if secondDone.State != string(JobDone) {
			t.Fatalf("second job %s (%s)", secondDone.State, secondDone.Error)
		}

		p1 := fetchReports(t, ts.URL, first.ID)
		p2 := fetchReports(t, ts.URL, second.ID)
		if !bytes.Equal(p1, p2) {
			t.Fatalf("shards=%d: identical jobs returned different payloads", shards)
		}
		payloads[shards] = p1

		// The workload has 2 distinct shapes across 8 layers: the first job
		// misses twice and hits 6 repeats; the second job hits everything.
		if firstDone.CacheStats.Misses != 2 || firstDone.CacheStats.Hits != 6 {
			t.Errorf("shards=%d: first job cache stats %+v, want 6 hits / 2 misses", shards, firstDone.CacheStats)
		}
		if secondDone.CacheStats.Hits != 8 || secondDone.CacheStats.Misses != 0 {
			t.Errorf("shards=%d: second job cache stats %+v, want 8 hits / 0 misses", shards, secondDone.CacheStats)
		}
	}
	if !bytes.Equal(payloads[1], payloads[4]) {
		t.Error("payloads differ between 1-shard and 4-shard servers")
	}
}

// TestServerSweepJob drives a sweep round trip with per-point reports.
func TestServerSweepJob(t *testing.T) {
	_, ts := newTestServer(t, 2)
	body := `{
	  "points": [
	    {"name": "os", "config": {"dataflow": "os"}, "topology": {"layers": [
	      {"name": "g", "kind": "gemm", "m": 64, "n": 48, "k": 32}]}},
	    {"name": "ws", "config": {"dataflow": "ws"}, "topology": {"layers": [
	      {"name": "g", "kind": "gemm", "m": 64, "n": 48, "k": 32}]}}
	  ]
	}`
	job := enqueueJob(t, ts.URL, "/v1/sweeps", body)
	done := waitJob(t, ts.URL, job.ID)
	if done.State != string(JobDone) {
		t.Fatalf("sweep job %s (%s)", done.State, done.Error)
	}
	if done.Progress.Done != 2 || done.Progress.Total != 2 {
		t.Errorf("progress %+v, want 2/2", done.Progress)
	}
	var payload SweepReportsDTO
	if err := json.Unmarshal(fetchReports(t, ts.URL, job.ID), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Kind != "sweep" || len(payload.Points) != 2 {
		t.Fatalf("payload kind=%q points=%d", payload.Kind, len(payload.Points))
	}
	for i, name := range []string{"os", "ws"} {
		p := payload.Points[i]
		if p.Name != name || p.Error != "" || len(p.Reports) == 0 {
			t.Errorf("point %d = %q err=%q reports=%d, want %q with reports", i, p.Name, p.Error, len(p.Reports), name)
		}
	}
}

// TestServerExploreJob drives an exploration round trip: the frontier files
// and search accounting come back in the payload.
func TestServerExploreJob(t *testing.T) {
	_, ts := newTestServer(t, 2)
	body := `{
	  "topology": {"layers": [{"name": "g", "kind": "gemm", "m": 64, "n": 48, "k": 32}]},
	  "space": "array=8..32:pow2",
	  "objectives": "cycles",
	  "strategy": "grid",
	  "budget": 8
	}`
	job := enqueueJob(t, ts.URL, "/v1/explore", body)
	done := waitJob(t, ts.URL, job.ID)
	if done.State != string(JobDone) {
		t.Fatalf("explore job %s (%s)", done.State, done.Error)
	}
	var payload ExploreReportsDTO
	if err := json.Unmarshal(fetchReports(t, ts.URL, job.ID), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Kind != "explore" || payload.Evaluated != 3 {
		t.Fatalf("payload kind=%q evaluated=%d, want explore over the 3-point grid", payload.Kind, payload.Evaluated)
	}
	names := map[string]bool{}
	for _, r := range payload.Reports {
		names[r.Name] = len(r.Content) > 0
	}
	if !names[scalesim.FrontierCSVFile] || !names[scalesim.FrontierJSONFile] {
		t.Errorf("payload reports %v missing frontier files", names)
	}

	// Every spelling the explore CLI accepts is accepted here, and reported
	// under its canonical name.
	job = enqueueJob(t, ts.URL, "/v1/explore", strings.Replace(body, `"grid"`, `"Evolution"`, 1))
	if done := waitJob(t, ts.URL, job.ID); done.State != string(JobDone) {
		t.Fatalf("explore job %s (%s)", done.State, done.Error)
	}
	if err := json.Unmarshal(fetchReports(t, ts.URL, job.ID), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Strategy != "evolve" {
		t.Errorf(`strategy "Evolution" ran as %q, want "evolve"`, payload.Strategy)
	}
}

// TestServerRequestErrors proves bad requests are rejected synchronously
// with the offending field named in the error.
func TestServerRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, 1)
	tests := []struct {
		name    string
		path    string
		body    string
		wantSub string
	}{
		{"unknown request field", "/v1/runs", `{"topolgy": {}}`, `"topolgy"`},
		{"unknown job option", "/v1/runs", `{"topology": {"builtin": "alexnet"}, "timeout": 1}`, `"timeout"`},
		{"unknown sweep field", "/v1/sweeps", `{"points": [{"topology": {"builtin": "alexnet"}}], "paralelism": 2}`, `"paralelism"`},
		{"unknown explore field", "/v1/explore", `{"topology": {"builtin": "alexnet"}, "space": "array=8..16:pow2", "fidelty": "event"}`, `"fidelty"`},
		{"unknown config field", "/v1/runs", `{"config": {"arry_rows": 8}, "topology": {"builtin": "alexnet"}}`, `"arry_rows"`},
		{"validation passthrough", "/v1/runs", `{"config": {"array_rows": -1}, "topology": {"builtin": "alexnet"}}`, "ArrayRows"},
		{"missing topology", "/v1/runs", `{"config": {}}`, "builtin or layers"},
		{"empty body", "/v1/runs", ``, "empty request body"},
		{"empty sweep", "/v1/sweeps", `{"points": []}`, "empty points"},
		{"sweep point named", "/v1/sweeps", `{"points": [{"config": {"dataflow": "zigzag"}, "topology": {"builtin": "alexnet"}}]}`, "points[0]"},
		{"missing space", "/v1/explore", `{"topology": {"builtin": "alexnet"}}`, "missing space"},
		{"bad axis", "/v1/explore", `{"topology": {"builtin": "alexnet"}, "space": "warp=1..4"}`, "warp"},
		{"bad objective", "/v1/explore", `{"topology": {"builtin": "alexnet"}, "space": "array=8..16:pow2", "objectives": "happiness"}`, "happiness"},
		{"bad strategy", "/v1/explore", `{"topology": {"builtin": "alexnet"}, "space": "array=8..16:pow2", "strategy": "gird"}`, `"gird"`},
		{"strategy lists valid values", "/v1/explore", `{"topology": {"builtin": "alexnet"}, "space": "array=8..16:pow2", "strategy": "nope"}`,
			`unknown strategy "nope" (valid: grid, random, evolve, auto)`},
		{"timeout_s overflows a Duration", "/v1/runs", `{"topology": {"builtin": "alexnet"}, "timeout_s": 1e10}`, "timeout_s"},
		{"negative timeout_s", "/v1/sweeps", `{"points": [{"topology": {"builtin": "alexnet"}}], "timeout_s": -1}`, "timeout_s"},
		{"explore timeout_s overflows", "/v1/explore", `{"topology": {"builtin": "alexnet"}, "space": "array=8..16:pow2", "timeout_s": 9.3e9}`, "timeout_s"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, b := postJSON(t, ts.URL+tt.path, tt.body)
			if code != http.StatusBadRequest {
				t.Fatalf("POST = %d, want 400; body: %s", code, b)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(b, &e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, tt.wantSub) {
				t.Errorf("error %q does not contain %q", e.Error, tt.wantSub)
			}
		})
	}
}

// TestServerRejectsRemovedFidelity pins the removed per-cycle tier's name
// to a field-named 400 on every job endpoint, listing the tiers that
// remain.
func TestServerRejectsRemovedFidelity(t *testing.T) {
	_, ts := newTestServer(t, 1)
	const want = `fidelity: scalesim: unknown fidelity "cycle" (valid: analytical, event)`
	for path, body := range map[string]string{
		"/v1/runs":    `{"topology": {"builtin": "alexnet"}, "fidelity": "cycle"}`,
		"/v1/sweeps":  `{"points": [{"topology": {"builtin": "alexnet"}}], "fidelity": "cycle"}`,
		"/v1/explore": `{"topology": {"builtin": "alexnet"}, "space": "array=8..16:pow2", "fidelity": "cycle"}`,
	} {
		code, b := postJSON(t, ts.URL+path, body)
		if code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400; body: %s", path, code, b)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatal(err)
		}
		if e.Error != want {
			t.Errorf("POST %s error %q, want %q", path, e.Error, want)
		}
	}
}

// TestServerRejectsTrailingData: a body is exactly one JSON value. A second
// value or stray bytes after it are a 400 on every job endpoint, not
// silently ignored like unknown fields would be if they were accepted.
func TestServerRejectsTrailingData(t *testing.T) {
	_, ts := newTestServer(t, 1)
	const want = "unexpected data after the JSON value"
	for path, body := range map[string]string{
		"/v1/runs":    `{"topology": {"builtin": "alexnet"}}`,
		"/v1/sweeps":  `{"points": [{"topology": {"builtin": "alexnet"}}]}`,
		"/v1/explore": `{"topology": {"builtin": "alexnet"}, "space": "array=8..16:pow2"}`,
	} {
		for _, tail := range []string{`{"bogus":1}`, ` trailing`, `}`} {
			code, b := postJSON(t, ts.URL+path, body+tail)
			if code != http.StatusBadRequest {
				t.Errorf("POST %s with tail %q = %d, want 400; body: %s", path, tail, code, b)
				continue
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(b, &e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, want) {
				t.Errorf("POST %s with tail %q: error %q does not contain %q", path, tail, e.Error, want)
			}
		}
	}
}

// TestServerOversizedBody proves a body past the request cap is a 413,
// distinguishable from a malformed 400.
func TestServerOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, 1)
	big := `{"pad": "` + strings.Repeat("x", maxRequestBytes) + `"}`
	code, b := postJSON(t, ts.URL+"/v1/runs", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST oversized body = %d, want 413; body: %s", code, b)
	}
}

// TestServerForcedSparsityRevalidates proves a config whose sparsity
// section is only invalid once the topology annotation enables the model
// is rejected at POST time with the field named, not accepted and failed
// later.
func TestServerForcedSparsityRevalidates(t *testing.T) {
	_, ts := newTestServer(t, 1)
	body := `{
	  "config": {"sparsity": {"optimized_mapping": true}},
	  "topology": {"builtin": "alexnet", "sparsity": "2:4"}
	}`
	code, b := postJSON(t, ts.URL+"/v1/runs", body)
	if code != http.StatusBadRequest {
		t.Fatalf("POST = %d, want 400; body: %s", code, b)
	}
	if !strings.Contains(string(b), "BlockSize") {
		t.Errorf("error body %s does not name Sparsity.BlockSize", b)
	}
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", j.ID(), j.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockingJob enqueues a job that parks until release is closed (or its
// context is canceled), pinning the worker that takes it deterministically.
func blockingJob(t *testing.T, s *Server) (*Job, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	j, err := s.enqueue("run", nil, 0, func(ctx context.Context, _ *Job) ([]byte, scalesim.RunCacheStats, error) {
		select {
		case <-release:
			return []byte(`{}`), scalesim.RunCacheStats{}, nil
		case <-ctx.Done():
			return nil, scalesim.RunCacheStats{}, ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, release
}

// TestServerCancelQueuedJob cancels a job while it waits behind another on
// the only worker; the worker must skip it.
func TestServerCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, 1)
	_, release := blockingJob(t, s)
	queued := enqueueJob(t, ts.URL, "/v1/runs", smallRunBody)

	resp, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(resp)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d; body: %s", r.StatusCode, b)
	}
	close(release)

	done := waitJob(t, ts.URL, queued.ID)
	if done.State != string(JobCanceled) {
		t.Fatalf("canceled job finished %s, want canceled", done.State)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+queued.ID+"/reports"); code != http.StatusConflict {
		t.Errorf("reports of canceled job = %d, want 409", code)
	}
}

// TestServerCancelRunningJob cancels a job mid-flight via its context.
func TestServerCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t, 1)
	j, _ := blockingJob(t, s)

	// Wait for the worker to pick the job up.
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", r.StatusCode)
	}
	done := waitJob(t, ts.URL, j.ID())
	if done.State != string(JobCanceled) {
		t.Fatalf("job finished %s, want canceled", done.State)
	}

	// Double-cancel is a conflict.
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusConflict {
		t.Errorf("second DELETE = %d, want 409", r2.StatusCode)
	}
}

// TestServerGracefulDrain proves Drain finishes queued work and that a
// draining server rejects new jobs with 503.
func TestServerGracefulDrain(t *testing.T) {
	s := New(Options{Shards: 1, QueueDepth: 16, Cache: scalesim.NewCache(0, 0)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := enqueueJob(t, ts.URL, "/v1/runs", smallRunBody)
	second := enqueueJob(t, ts.URL, "/v1/runs", smallRunBody)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range []string{first.ID, second.ID} {
		j, ok := s.lookup(id)
		if !ok || j.State() != JobDone {
			t.Errorf("after drain, job %s state %v, want done", id, j.State())
		}
	}
	if code, b := postJSON(t, ts.URL+"/v1/runs", smallRunBody); code != http.StatusServiceUnavailable {
		t.Errorf("POST on draining server = %d, want 503; body: %s", code, b)
	}
}

// TestServerDrainTimeoutCancels proves an expired drain context force-
// cancels in-flight jobs instead of hanging.
func TestServerDrainTimeoutCancels(t *testing.T) {
	s := New(Options{Shards: 1, QueueDepth: 16, Cache: scalesim.NewCache(0, 0)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, _ := blockingJob(t, s) // never released: only cancellation ends it
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("Drain returned nil, want context error after forced cancel")
	}
	if st := j.State(); st != JobCanceled {
		t.Errorf("blocked job state %v after forced drain, want canceled", st)
	}
}

// TestServerQueueFull proves a saturated queue rejects enqueues with 503.
func TestServerQueueFull(t *testing.T) {
	s := New(Options{Shards: 1, QueueDepth: 1, Cache: scalesim.NewCache(0, 0)})
	ts := httptest.NewServer(s.Handler())
	blocker, release := blockingJob(t, s) // occupies the worker
	defer func() {
		close(release)
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	}()

	// Once the worker holds the blocker, the queue has room for exactly
	// one more job; the next must bounce.
	waitState(t, blocker, JobRunning)
	enqueueJob(t, ts.URL, "/v1/runs", smallRunBody)
	code, b := postJSON(t, ts.URL+"/v1/runs", smallRunBody)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("POST on full queue = %d, want 503; body: %s", code, b)
	}
	if !strings.Contains(string(b), "queue full") {
		t.Errorf("error body %s does not mention the full queue", b)
	}
}

// TestServerSSEEvents streams a job's progress events and checks the
// terminal event arrives.
func TestServerSSEEvents(t *testing.T) {
	_, ts := newTestServer(t, 1)
	job := enqueueJob(t, ts.URL, "/v1/runs", smallRunBody)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var sawJobEvent, sawDone bool
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "event: job":
			sawJobEvent = true
		case line == "event: done":
			sawDone = true
		case strings.HasPrefix(line, "data: ") && sawDone:
			var dto JobDTO
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &dto); err != nil {
				t.Fatal(err)
			}
			if dto.State != string(JobDone) {
				t.Errorf("terminal event state %q, want done", dto.State)
			}
			if !sawJobEvent {
				t.Error("no job event before the terminal event")
			}
			return
		}
	}
	t.Fatalf("stream ended without a done event (scan err: %v)", scanner.Err())
}

// TestServerHealthAndMetrics spot-checks the observability endpoints,
// including shared-cache counters after a cached re-run.
func TestServerHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, 2)
	for i := 0; i < 2; i++ {
		job := enqueueJob(t, ts.URL, "/v1/runs", smallRunBody)
		if done := waitJob(t, ts.URL, job.ID); done.State != string(JobDone) {
			t.Fatalf("job %d finished %s", i, done.State)
		}
	}

	code, b := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(b), `"status": "ok"`) {
		t.Fatalf("healthz = %d %s", code, b)
	}

	code, b = getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	metrics := string(b)
	for _, want := range []string{
		"scalesim_jobs_accepted_total 2",
		`scalesim_jobs{state="done"} 2`,
		// The shared cache counts one lookup per distinct layer shape
		// per run: two shapes, a miss each, then a hit each.
		"scalesim_cache_misses_total 2",
		"scalesim_cache_hits_total 2",
		"scalesim_cache_store_hits_total 0",
		"scalesim_cache_store_misses_total 0",
		"scalesim_draining 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	code, b = getJSON(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("jobs list = %d", code)
	}
	var list struct {
		Jobs []JobDTO `json:"jobs"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != "job-000001" || list.Jobs[1].ID != "job-000002" {
		t.Errorf("job list %+v, want job-000001, job-000002 in accept order", list.Jobs)
	}

	if code, _ := getJSON(t, ts.URL+"/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}
}

// TestServerStoreWarmRestart simulates `serve -store` dying and coming
// back: a second server with a fresh cache over the same store directory
// must answer a previously-seen job entirely from disk — zero simulation
// misses — and report the store tier in /metrics.
func TestServerStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()

	boot := func() (*Server, *httptest.Server, *scalesim.Cache) {
		cache := scalesim.NewCache(0, 0)
		if err := cache.AttachStore(dir, 0); err != nil {
			t.Fatal(err)
		}
		s := New(Options{Shards: 2, QueueDepth: 16, Cache: cache})
		ts := httptest.NewServer(s.Handler())
		return s, ts, cache
	}
	shutdown := func(s *Server, ts *httptest.Server, cache *scalesim.Cache) {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)       //nolint:errcheck
		cache.CloseStore() //nolint:errcheck
	}

	s1, ts1, cache1 := boot()
	job := enqueueJob(t, ts1.URL, "/v1/runs", smallRunBody)
	done := waitJob(t, ts1.URL, job.ID)
	if done.State != string(JobDone) {
		t.Fatalf("cold job finished %s", done.State)
	}
	if done.CacheStats.Misses == 0 {
		t.Fatalf("cold job stats %+v, want real simulation misses", done.CacheStats)
	}
	reference := fetchReports(t, ts1.URL, job.ID)
	shutdown(s1, ts1, cache1)

	s2, ts2, cache2 := boot()
	defer shutdown(s2, ts2, cache2)
	job = enqueueJob(t, ts2.URL, "/v1/runs", smallRunBody)
	done = waitJob(t, ts2.URL, job.ID)
	if done.State != string(JobDone) {
		t.Fatalf("warm job finished %s", done.State)
	}
	if done.CacheStats.Misses != 0 || done.CacheStats.Hits == 0 {
		t.Errorf("warm job stats %+v, want 0 misses (all layers from disk)", done.CacheStats)
	}
	if payload := fetchReports(t, ts2.URL, job.ID); !bytes.Equal(payload, reference) {
		t.Error("disk-served payload differs from the pre-restart payload")
	}

	code, b := getJSON(t, ts2.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	metrics := string(b)
	for _, want := range []string{
		"scalesim_cache_misses_total 0",
		"scalesim_store_entries ",
		"scalesim_store_hits_total ",
		"scalesim_store_snapshot_age_seconds ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if !strings.Contains(metrics, "scalesim_cache_store_hits_total 2") {
		t.Errorf("metrics missing scalesim_cache_store_hits_total 2 (two distinct shapes from disk):\n%s", metrics)
	}
	cs := cache2.Stats()
	if cs.StoreHits != 2 {
		t.Errorf("StoreHits = %d, want 2 (one per distinct layer shape)", cs.StoreHits)
	}
}

// TestServerForcedSparsityEnablesModel proves a topology-wide sparsity
// annotation turns sparse modeling on (like the CLI's -sparsity flag):
// the payload then carries a sparse report.
func TestServerForcedSparsityEnablesModel(t *testing.T) {
	_, ts := newTestServer(t, 1)
	body := `{
	  "topology": {"sparsity": "2:4", "layers": [
	    {"name": "g", "kind": "gemm", "m": 64, "n": 48, "k": 32}]}
	}`
	job := enqueueJob(t, ts.URL, "/v1/runs", body)
	done := waitJob(t, ts.URL, job.ID)
	if done.State != string(JobDone) {
		t.Fatalf("job %s (%s)", done.State, done.Error)
	}
	var payload RunReportsDTO
	if err := json.Unmarshal(fetchReports(t, ts.URL, job.ID), &payload); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range payload.Reports {
		if r.Name == scalesim.SparseReportFile {
			found = true
		}
	}
	if !found {
		t.Errorf("reports %v missing %s", reportNames(payload.Reports), scalesim.SparseReportFile)
	}
}

func reportNames(files []ReportFileDTO) []string {
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.Name
	}
	return out
}

// quickJob enqueues a job that returns at once.
func quickJob(t *testing.T, s *Server) *Job {
	t.Helper()
	j, err := s.enqueue("run", nil, 0, func(context.Context, *Job) ([]byte, scalesim.RunCacheStats, error) {
		return []byte(`{}`), scalesim.RunCacheStats{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestServerIdleWorkerTakesNextJob proves no job waits behind a busy
// worker while another worker is idle: with one worker pinned, every later
// job runs on the other.
func TestServerIdleWorkerTakesNextJob(t *testing.T) {
	s := New(Options{Shards: 2, QueueDepth: 4, Cache: scalesim.NewCache(0, 0)})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	}()

	a, relA := blockingJob(t, s)
	defer close(relA)
	waitState(t, a, JobRunning)
	waitState(t, quickJob(t, s), JobDone)
	waitState(t, quickJob(t, s), JobDone)
	if st := a.State(); st != JobRunning {
		t.Fatalf("pinned job %s is %s, want still running", a.ID(), st)
	}
}

// TestServerJobHistoryEviction proves the job history is bounded: once
// MaxJobs is exceeded the oldest finished jobs (and their payloads) are
// dropped, while unfinished jobs are never evicted.
func TestServerJobHistoryEviction(t *testing.T) {
	s := New(Options{Shards: 1, QueueDepth: 8, MaxJobs: 2, Cache: scalesim.NewCache(0, 0)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	})

	var ids []string
	for i := 0; i < 3; i++ {
		job := enqueueJob(t, ts.URL, "/v1/runs", smallRunBody)
		if done := waitJob(t, ts.URL, job.ID); done.State != string(JobDone) {
			t.Fatalf("job %d finished %s", i, done.State)
		}
		ids = append(ids, job.ID)
	}

	if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+ids[0]); code != http.StatusNotFound {
		t.Errorf("evicted job %s = %d, want 404", ids[0], code)
	}
	for _, id := range ids[1:] {
		if code, _ := getJSON(t, ts.URL+"/v1/jobs/"+id); code != http.StatusOK {
			t.Errorf("retained job %s = %d, want 200", id, code)
		}
	}
	code, b := getJSON(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("jobs list = %d", code)
	}
	var list struct {
		Jobs []JobDTO `json:"jobs"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Errorf("job list has %d entries after eviction, want 2", len(list.Jobs))
	}
}

// TestServerJobIDsAreSequential pins the ID scheme the CI integration
// script relies on.
func TestServerJobIDsAreSequential(t *testing.T) {
	s := New(Options{Shards: 3, QueueDepth: 4, Cache: scalesim.NewCache(0, 0)})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	}()
	for i := 0; i < 3; i++ {
		j := quickJob(t, s)
		want := fmt.Sprintf("job-%06d", i+1)
		if j.ID() != want {
			t.Errorf("job %d ID = %s, want %s", i, j.ID(), want)
		}
	}
}
