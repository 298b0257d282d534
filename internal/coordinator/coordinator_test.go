package coordinator

import (
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
	"scalesim/internal/server"
	"scalesim/internal/simcache"
)

// runBody is an 8-layer workload with two distinct GEMM shapes — the same
// shape the server tests use, so worker-side cache behavior is familiar.
const runBody = `{
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

// newWorker boots one worker server with a private cache on an httptest
// listener and returns its base URL.
func newWorker(t *testing.T) string {
	t.Helper()
	s := server.New(server.Options{Shards: 2, QueueDepth: 16, Cache: scalesim.NewCache(0, 0)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	})
	return ts.URL
}

// newCoordinator boots a coordinator over the given workers, fronted by
// its own job server, and returns the coordinator plus its base URL.
func newCoordinator(t *testing.T, opts Options) (*Coordinator, string) {
	t.Helper()
	if opts.PollInterval == 0 {
		opts.PollInterval = 2 * time.Millisecond
	}
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = 5 * time.Millisecond
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	front := server.New(server.Options{Shards: 2, QueueDepth: 16, Cache: scalesim.NewCache(0, 0), Executor: c})
	ts := httptest.NewServer(front.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		front.Drain(ctx) //nolint:errcheck
		c.Close()        //nolint:errcheck
	})
	return c, ts.URL
}

// runJob posts body to base's run endpoint, waits for a terminal state and
// returns the final job DTO plus the reports payload (nil unless done).
func runJob(t *testing.T, base, body string) (jobDTO, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d; body: %s", resp.StatusCode, raw)
	}
	var dto jobDTO
	if err := json.Unmarshal(raw, &dto); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !jobStateTerminal(dto.State) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", dto.ID, dto.State)
		}
		time.Sleep(2 * time.Millisecond)
		r, err := http.Get(base + "/v1/jobs/" + dto.ID)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ = io.ReadAll(r.Body)
		r.Body.Close()
		if err := json.Unmarshal(raw, &dto); err != nil {
			t.Fatal(err)
		}
	}
	if dto.State != "done" {
		return dto, nil
	}
	r, err := http.Get(base + "/v1/jobs/" + dto.ID + "/reports")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	payload, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET reports = %d; body: %s", r.StatusCode, payload)
	}
	return dto, payload
}

// TestByteIdenticalAcrossWorkerCounts is the tentpole's determinism bar: a
// single direct worker and coordinators over 1, 2 and 3 workers — cold and
// warm — must all serve byte-identical payloads for the same request.
func TestByteIdenticalAcrossWorkerCounts(t *testing.T) {
	direct := newWorker(t)
	dto, reference := runJob(t, direct, runBody)
	if dto.State != "done" {
		t.Fatalf("direct job ended %s: %s", dto.State, dto.Error)
	}
	for _, workers := range []int{1, 2, 3} {
		urls := make([]string, workers)
		for i := range urls {
			urls[i] = newWorker(t)
		}
		c, base := newCoordinator(t, Options{Workers: urls})
		_, cold := runJob(t, base, runBody)
		if !bytes.Equal(cold, reference) {
			t.Errorf("%d workers: cold payload differs from direct worker payload", workers)
		}
		_, warm := runJob(t, base, runBody)
		if !bytes.Equal(warm, reference) {
			t.Errorf("%d workers: warm payload differs from direct worker payload", workers)
		}
		if hits := c.storeHits.Load(); hits != 1 {
			t.Errorf("%d workers: store hits = %d, want 1 (warm job served from payload store)", workers, hits)
		}
		if d := c.dispatches.Load(); d != 1 {
			t.Errorf("%d workers: dispatches = %d, want 1 (warm job must not re-dispatch)", workers, d)
		}
	}
}

// TestCoalescesIdenticalInFlightJobs: N identical jobs posted at once must
// dispatch a single worker job and share its payload.
func TestCoalescesIdenticalInFlightJobs(t *testing.T) {
	c, base := newCoordinator(t, Options{Workers: []string{newWorker(t)}})
	const jobs = 4
	type result struct {
		state   string
		payload []byte
	}
	results := make(chan result, jobs)
	for i := 0; i < jobs; i++ {
		go func() {
			dto, payload := runJob(t, base, runBody)
			results <- result{dto.State, payload}
		}()
	}
	var first []byte
	for i := 0; i < jobs; i++ {
		r := <-results
		if r.state != "done" {
			t.Fatalf("job ended %s", r.state)
		}
		if first == nil {
			first = r.payload
		} else if !bytes.Equal(first, r.payload) {
			t.Error("coalesced jobs returned different payloads")
		}
	}
	if d := c.dispatches.Load(); d != 1 {
		t.Errorf("dispatches = %d, want 1 (identical in-flight jobs must coalesce)", d)
	}
}

// flakyWorker accepts jobs and then pretends to die: every status poll
// returns 500, so the coordinator must give the job up and reroute it.
func flakyWorker(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id": "job-000001", "state": "queued"}`)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status": "ok"}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "simulated dead worker", http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestReroutesFromDeadWorker: with a worker that dies mid-job first in the
// rotation, the job must complete on the healthy worker via retry.
func TestReroutesFromDeadWorker(t *testing.T) {
	direct := newWorker(t)
	_, reference := runJob(t, direct, runBody)

	flaky := flakyWorker(t)
	healthy := newWorker(t)
	// Long health interval: routing must discover the death through the
	// dispatch path, not the prober.
	c, base := newCoordinator(t, Options{
		Workers:        []string{flaky, healthy},
		HealthInterval: time.Hour,
		MaxAttempts:    3,
	})
	dto, payload := runJob(t, base, runBody)
	if dto.State != "done" {
		t.Fatalf("job ended %s: %s", dto.State, dto.Error)
	}
	if !bytes.Equal(payload, reference) {
		t.Error("rerouted payload differs from direct worker payload")
	}
	if r := c.retries.Load(); r == 0 {
		t.Error("retries = 0, want the flaky worker's failure to be retried")
	}
	// The flaky worker's poll failures must have marked it unhealthy.
	for _, w := range c.workers {
		if w.url == flaky && w.healthy.Load() {
			t.Error("flaky worker still marked healthy after a failed dispatch")
		}
	}
}

// TestUnreachableWorkerRoutedAround: a worker address nobody listens on
// must not prevent completion at any position in the rotation — either the
// startup health probe flags it first (no retry needed) or the dispatch
// transport error triggers a reroute. Both paths end with the job done and
// the address marked down.
func TestUnreachableWorkerRoutedAround(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore

	c, base := newCoordinator(t, Options{
		Workers:        []string{deadURL, newWorker(t)},
		HealthInterval: time.Hour,
		MaxAttempts:    3,
	})
	// Two distinct jobs so at least one is round-robined at the dead slot.
	for i := 0; i < 2; i++ {
		body := strings.Replace(runBody, `"m": 64`, fmt.Sprintf(`"m": %d`, 64+i), 1)
		dto, payload := runJob(t, base, body)
		if dto.State != "done" {
			t.Fatalf("job %d ended %s: %s", i, dto.State, dto.Error)
		}
		if len(payload) == 0 {
			t.Fatalf("job %d returned an empty payload", i)
		}
	}
	for _, w := range c.workers {
		if w.url == deadURL && w.healthy.Load() {
			t.Error("unreachable worker still marked healthy")
		}
	}
}

// TestPersistentPayloadStore: a coordinator restarted onto the same store
// directory answers known jobs without dispatching at all — even when every
// worker is gone.
func TestPersistentPayloadStore(t *testing.T) {
	dir := t.TempDir()
	worker := newWorker(t)

	c1, base1 := newCoordinator(t, Options{Workers: []string{worker}, StoreDir: dir})
	dto, reference := runJob(t, base1, runBody)
	if dto.State != "done" {
		t.Fatalf("cold job ended %s: %s", dto.State, dto.Error)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	c2, base2 := newCoordinator(t, Options{Workers: []string{deadURL}, StoreDir: dir, HealthInterval: time.Hour})
	dto, warm := runJob(t, base2, runBody)
	if dto.State != "done" {
		t.Fatalf("warm job ended %s: %s", dto.State, dto.Error)
	}
	if !bytes.Equal(warm, reference) {
		t.Error("store-served payload differs from the original")
	}
	if d := c2.dispatches.Load(); d != 0 {
		t.Errorf("dispatches = %d, want 0 (job must be served from the persisted store)", d)
	}
	if h := c2.storeHits.Load(); h != 1 {
		t.Errorf("store hits = %d, want 1", h)
	}
}

// TestMemoryPayloadStoreBounded: without a store directory, payload reuse is
// an LRU at simcache's default bounds, so a long-running coordinator does not
// keep every payload it has relayed.
func TestMemoryPayloadStoreBounded(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	c, err := New(Options{Workers: []string{dead.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := func(i int) simcache.Key {
		h := simcache.NewHasher()
		h.Int(int64(i))
		return h.Sum()
	}
	for i := 0; i <= simcache.DefaultMaxEntries; i++ {
		c.storePut(key(i), []byte(fmt.Sprint(i)))
	}
	if _, ok := c.storeGet(key(0)); ok {
		t.Error("the first payload is still held after DefaultMaxEntries newer ones")
	}
	if n := c.mem.Stats().Entries; n != simcache.DefaultMaxEntries {
		t.Errorf("%d payloads held, want the bound %d", n, simcache.DefaultMaxEntries)
	}
	last := simcache.DefaultMaxEntries
	if p, ok := c.storeGet(key(last)); !ok || string(p) != fmt.Sprint(last) {
		t.Errorf("newest payload = %q, %v; want %q", p, ok, fmt.Sprint(last))
	}
}

func TestFingerprintCanonicalization(t *testing.T) {
	base, err := Fingerprint("run", []byte(runBody))
	if err != nil {
		t.Fatal(err)
	}
	// Whitespace, top-level field order and parallelism do not matter.
	reordered := `{"topology": {"name": "mini", "layers": [
    {"name": "a0", "kind": "gemm", "m": 64, "n": 48, "k": 32},
    {"name": "b0", "kind": "gemm", "m": 48, "n": 64, "k": 16},
    {"name": "a1", "kind": "gemm", "m": 64, "n": 48, "k": 32},
    {"name": "b1", "kind": "gemm", "m": 48, "n": 64, "k": 16},
    {"name": "a2", "kind": "gemm", "m": 64, "n": 48, "k": 32},
    {"name": "b2", "kind": "gemm", "m": 48, "n": 64, "k": 16},
    {"name": "a3", "kind": "gemm", "m": 64, "n": 48, "k": 32},
    {"name": "b3", "kind": "gemm", "m": 48, "n": 64, "k": 16}
  ]}, "parallelism": 4, "config": {"preset": "default"}}`
	same, err := Fingerprint("run", []byte(reordered))
	if err != nil {
		t.Fatal(err)
	}
	if base != same {
		t.Error("reordered/parallelism-tagged request fingerprints differently")
	}
	// The kind and any config change do matter.
	if k, _ := Fingerprint("sweep", []byte(runBody)); k == base {
		t.Error("different kind, same fingerprint")
	}
	changed := strings.Replace(runBody, `"m": 64`, `"m": 65`, 1)
	if k, _ := Fingerprint("run", []byte(changed)); k == base {
		t.Error("different workload, same fingerprint")
	}
	if _, err := Fingerprint("run", []byte("{not json")); err == nil {
		t.Error("Fingerprint accepted malformed JSON")
	}
}

// TestCacheKeysPinned pins Fingerprint's bytes for runBody to the value the
// original unbuffered hasher produced: payload stores on disk are keyed by
// it, so a change here must bump simcache.SchemaVersion.
func TestCacheKeysPinned(t *testing.T) {
	k, err := Fingerprint("run", []byte(runBody))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", k), "e80e888bd53ba53fd949a6e775d334886caaba8089a9626e3d5e9647cef8f1be"; got != want {
		t.Errorf("Fingerprint(run, runBody) = %s, want %s", got, want)
	}
}
