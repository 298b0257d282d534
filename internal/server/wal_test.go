package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"scalesim"
	"scalesim/internal/diskstore"
)

// TestServerJournalResume is the durability round trip: a server accepts
// jobs into a journal, "crashes" before running them, and a successor
// opened on the same journal resumes every pending spec — byte-identical
// results for the valid ones, a visible failed tombstone for the one that
// no longer parses — then compacts the journal down to nothing once all
// work is terminal.
func TestServerJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	journal, records, err := diskstore.OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh journal recovered %d records", len(records))
	}

	// Server A: one shard, worker pinned by a blocker whose journaled body
	// is empty (it was enqueued internally), plus two queued HTTP runs.
	sA := New(Options{Shards: 1, QueueDepth: 16, Cache: scalesim.NewCache(0, 0),
		Journal: journal, JournalRecords: records})
	tsA := httptest.NewServer(sA.Handler())
	blocker, _ := blockingJob(t, sA)
	waitState(t, blocker, JobRunning)
	enqueueJob(t, tsA.URL, "/v1/runs", smallRunBody)
	enqueueJob(t, tsA.URL, "/v1/runs", smallRunBody)

	// Crash: the journal stops cold with three accepted records and no
	// terminals. Closing it first means even the forced drain below cannot
	// retroactively journal terminal states.
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sA.Drain(ctx) //nolint:errcheck

	journal2, records2, err := diskstore.OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(records2) != 3 {
		t.Fatalf("recovered %d journal records, want 3 accepted", len(records2))
	}

	// Server B resumes during New, before its workers start.
	sB := New(Options{Shards: 2, QueueDepth: 16, Cache: scalesim.NewCache(0, 0),
		Journal: journal2, JournalRecords: records2})
	tsB := httptest.NewServer(sB.Handler())

	sB.mu.Lock()
	resumed := sB.resumed
	ids := append([]string(nil), sB.order...)
	sB.mu.Unlock()
	if resumed != 2 {
		t.Fatalf("resumed = %d, want 2 (blocker's empty body must not resume)", resumed)
	}
	if len(ids) != 3 {
		t.Fatalf("successor registered %d jobs, want 3 (2 resumed + 1 tombstone)", len(ids))
	}

	var done, failed []JobDTO
	for _, id := range ids {
		dto := waitJob(t, tsB.URL, id)
		switch dto.State {
		case string(JobDone):
			done = append(done, dto)
		case string(JobFailed):
			failed = append(failed, dto)
		default:
			t.Fatalf("resumed job %s settled as %s", id, dto.State)
		}
	}
	if len(done) != 2 || len(failed) != 1 {
		t.Fatalf("resume settled %d done / %d failed, want 2 / 1", len(done), len(failed))
	}
	if !strings.Contains(failed[0].Error, "resuming journaled job") {
		t.Errorf("tombstone error %q does not name the journaled job", failed[0].Error)
	}

	// Byte-identical contract: the resumed payloads match a fresh run of
	// the same body on the successor.
	fresh := enqueueJob(t, tsB.URL, "/v1/runs", smallRunBody)
	waitJob(t, tsB.URL, fresh.ID)
	want := fetchReports(t, tsB.URL, fresh.ID)
	for _, dto := range done {
		if got := fetchReports(t, tsB.URL, dto.ID); !bytes.Equal(got, want) {
			t.Errorf("resumed job %s payload differs from a fresh identical run", dto.ID)
		}
	}

	code, b := getJSON(t, tsB.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	if !strings.Contains(string(b), "scalesim_jobs_resumed_total 2") {
		t.Error("metrics missing scalesim_jobs_resumed_total 2 after resume")
	}

	// Clean shutdown of B, then a third open: every record is closed out,
	// so nothing is pending and compaction leaves an empty journal.
	tsB.Close()
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := sB.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	if err := journal2.Close(); err != nil {
		t.Fatal(err)
	}
	journal3, records3, err := diskstore.OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer journal3.Close()
	if pending := pendingJournalRecords(records3); len(pending) != 0 {
		t.Fatalf("%d jobs still pending after clean shutdown, want 0", len(pending))
	}
}

// TestServerJobDeadline proves a job that ignores completion but honors its
// context is failed — not wedged — once its per-job deadline expires, and
// that the failure names the deadline.
func TestServerJobDeadline(t *testing.T) {
	s, _ := newTestServer(t, 1)
	j, err := s.enqueue("run", nil, 50*time.Millisecond,
		func(ctx context.Context, _ *Job) ([]byte, scalesim.RunCacheStats, error) {
			<-ctx.Done()
			return nil, scalesim.RunCacheStats{}, ctx.Err()
		})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobFailed)
	dto := j.dto()
	if !strings.Contains(dto.Error, "deadline") {
		t.Errorf("deadline-failed job error %q does not mention the deadline", dto.Error)
	}

	// The worker survives: the next job on it completes.
	after, err := s.enqueue("run", nil, 0,
		func(context.Context, *Job) ([]byte, scalesim.RunCacheStats, error) {
			return []byte(`{}`), scalesim.RunCacheStats{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, after, JobDone)
}

// TestServerTimeoutSOverridesDefault checks the request-level timeout_s
// knob resolves through buildRun, overriding the server default.
func TestServerTimeoutSOverridesDefault(t *testing.T) {
	s := New(Options{Shards: 1, Cache: scalesim.NewCache(0, 0), JobTimeout: time.Hour})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	}()

	var body map[string]any
	if err := json.Unmarshal([]byte(smallRunBody), &body); err != nil {
		t.Fatal(err)
	}
	body["timeout_s"] = 2.5
	raw, _ := json.Marshal(body)
	_, timeout, err := s.buildRun("run", raw)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2500 * time.Millisecond; timeout != want {
		t.Errorf("timeout_s resolved to %v, want %v", timeout, want)
	}

	// Without timeout_s the server default applies.
	_, timeout, err = s.buildRun("run", []byte(smallRunBody))
	if err != nil {
		t.Fatal(err)
	}
	if timeout != time.Hour {
		t.Errorf("default timeout resolved to %v, want 1h", timeout)
	}
}

// TestServerTimeoutSBounds: timeout_s converts to a positive deadline or
// is refused. A value a time.Duration cannot hold used to wrap negative
// and a negative one was dropped, both leaving the job without the
// server's -job-timeout; a positive value too small for a nanosecond used
// to truncate to no deadline.
func TestServerTimeoutSBounds(t *testing.T) {
	s := New(Options{Shards: 1, Cache: scalesim.NewCache(0, 0), JobTimeout: time.Hour})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	}()
	var body map[string]any
	if err := json.Unmarshal([]byte(smallRunBody), &body); err != nil {
		t.Fatal(err)
	}
	build := func(seconds float64) (time.Duration, error) {
		body["timeout_s"] = seconds
		raw, _ := json.Marshal(body)
		_, timeout, err := s.buildRun("run", raw)
		return timeout, err
	}
	for _, bad := range []float64{-1, -1e-9, 9.3e9, 1e10, 1e300} {
		if timeout, err := build(bad); err == nil || !strings.Contains(err.Error(), "timeout_s") {
			t.Errorf("timeout_s %v: timeout %v, error %v; want an error naming timeout_s", bad, timeout, err)
		}
	}
	for seconds, want := range map[float64]time.Duration{
		1e-12: 1,
		9e9:   time.Duration(9e9 * float64(time.Second)),
	} {
		if timeout, err := build(seconds); err != nil || timeout != want {
			t.Errorf("timeout_s %v: timeout %v, error %v; want %v", seconds, timeout, err, want)
		}
	}
}

// TestServerAdmissionRetryAfter drives the queue-wait admission bound: with
// a seeded average job duration and a pinned worker, a new enqueue whose
// estimated wait exceeds MaxQueueWait is shed with 503 and a Retry-After
// that paces the client off the backlog.
func TestServerAdmissionRetryAfter(t *testing.T) {
	s := New(Options{Shards: 1, QueueDepth: 16, Cache: scalesim.NewCache(0, 0),
		MaxQueueWait: 100 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	blocker, release := blockingJob(t, s)
	defer func() {
		close(release)
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	}()
	waitState(t, blocker, JobRunning)

	// Seed the duration EWMA as if jobs averaged 2s, and put one job in the
	// queue: the next arrival would wait ~2s >> 100ms.
	s.mu.Lock()
	s.jobDurEWMA = 2.0
	s.mu.Unlock()
	enqueueJob(t, ts.URL, "/v1/runs", smallRunBody)

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(smallRunBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-bound enqueue = %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("503 missing Retry-After header")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer seconds >= 1", ra)
	}
}

// TestServerJobHookCrash: a panic out of the job hook (the fault-injection
// worker-crash seam) fails that job alone; the worker goroutine survives to
// run the next one.
func TestServerJobHookCrash(t *testing.T) {
	calls := 0
	s := New(Options{Shards: 1, QueueDepth: 16, Cache: scalesim.NewCache(0, 0),
		JobHook: func(string) {
			calls++
			if calls == 1 {
				panic("injected worker crash")
			}
		}})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck
	}()

	crashed := enqueueJob(t, ts.URL, "/v1/runs", smallRunBody)
	dto := waitJob(t, ts.URL, crashed.ID)
	if dto.State != string(JobFailed) {
		t.Fatalf("crashed job settled as %s, want failed", dto.State)
	}
	if !strings.Contains(dto.Error, "job panicked") {
		t.Errorf("crash error %q does not mention the panic", dto.Error)
	}

	next := enqueueJob(t, ts.URL, "/v1/runs", smallRunBody)
	if dto := waitJob(t, ts.URL, next.ID); dto.State != string(JobDone) {
		t.Fatalf("job after the crash settled as %s: %s", dto.State, dto.Error)
	}
}

// FuzzJobJournalRecovery feeds arbitrary bytes through the journal open
// path and the pending-record reduction: recovery must never panic, and
// every pending record it yields must re-marshal (the compaction path
// writes them back).
func FuzzJobJournalRecovery(f *testing.F) {
	// Seed with a genuine journal: two accepted records, one closed out.
	seedPath := filepath.Join(f.TempDir(), "seed.journal")
	j, _, err := diskstore.OpenJournal(seedPath, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []journalRecord{
		{ID: "job-000001", State: "accepted", Kind: "run", Body: json.RawMessage(smallRunBody)},
		{ID: "job-000002", State: "accepted", Kind: "sweep", TimeoutS: 1.5},
		{ID: "job-000001", State: "done"},
	} {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		if err := j.Append(b); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // torn tail
	f.Add([]byte{})
	f.Add([]byte("sSl1 not actually a frame"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		jj, records, err := diskstore.OpenJournal(path, nil)
		if err != nil {
			return
		}
		defer jj.Close()
		for _, rec := range pendingJournalRecords(records) {
			if _, err := json.Marshal(rec); err != nil {
				t.Fatalf("pending record %q does not re-marshal: %v", rec.ID, err)
			}
		}
	})
}
