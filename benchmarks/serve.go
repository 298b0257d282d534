package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"scalesim"
	"scalesim/internal/server"
)

// serveClients is the closed-loop client count and the server's shard
// count: one of each per CPU of the 2-CPU reference host, never more
// threads or connections than that.
const serveClients = 2

// serveWorkload drives an in-process job server over real HTTP. Each of
// the closed-loop keep-alive clients sends its next job only after the
// previous one completed, because callers of a job API wait for replies.
// A job is POST /v1/runs -> SSE /events until terminal -> GET /reports; it
// is the workload's iteration and its unit of work.
type serveWorkload struct {
	cache   *scalesim.Cache
	srv     *server.Server
	ts      *httptest.Server
	callers [serveClients]*http.Client
	rec     *recorder

	mu       sync.Mutex // guards the fields below, shared by the clients
	next     func() serveJob
	payloads map[int][sha256.Size]byte // digest of the payload each request body produced
	first    runOutputs

	// Phase latencies of the traced run, seconds.
	accept, queueRun, fetch, hitDone, missDone []float64
	rejected                                   int
}

func newServe(in *inputs) *serveWorkload {
	return startServe(in.serveMix(), server.Options{QueueDepth: 64, Cache: scalesim.NewCache(0, 0)})
}

// startServe boots a job server with one shard per client behind a real
// HTTP listener. opts.Cache must be set: the workload owns a private one.
func startServe(next func() serveJob, opts server.Options) *serveWorkload {
	opts.Shards = serveClients
	w := &serveWorkload{cache: opts.Cache, next: next, payloads: map[int][sha256.Size]byte{}}
	w.srv = server.New(opts)
	w.ts = httptest.NewServer(w.srv.Handler())
	for i := range w.callers {
		// One keep-alive client per caller; the timeout turns a hung
		// request into a failed operation.
		w.callers[i] = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}
	}
	return w
}

func (w *serveWorkload) trace(rec *recorder) { w.rec = rec }

// jobTimes are the phase boundaries of one job.
type jobTimes struct{ start, accepted, terminal, done time.Time }

// errRejected marks a 503: the server shed the job. It is a failed
// operation and is not retried.
var errRejected = errors.New("rejected with 503")

// doJob runs one job to completion and checks its payload.
func (w *serveWorkload) doJob(c *http.Client, job serveJob) (jobTimes, error) {
	var t jobTimes
	t.start = time.Now()
	resp, err := c.Post(w.ts.URL+"/v1/runs", "application/json", bytes.NewReader(job.body))
	if err != nil {
		return t, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.accepted = time.Now()
	if err != nil {
		return t, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		return t, errRejected
	}
	if resp.StatusCode != http.StatusAccepted {
		return t, fmt.Errorf("POST /v1/runs: %s: %s", resp.Status, body)
	}
	// The 202 body is a live snapshot that races the worker, so any state
	// but a failure is a valid accept.
	var accepted server.JobDTO
	if err := json.Unmarshal(body, &accepted); err != nil || accepted.ID == "" {
		return t, fmt.Errorf("POST /v1/runs: bad 202 body %q", body)
	}
	if s := server.JobState(accepted.State); s == server.JobFailed || s == server.JobCanceled {
		return t, fmt.Errorf("job %s accepted as %s: %s", accepted.ID, s, accepted.Error)
	}

	// Wait on the event stream, not a poll loop, so latency carries no
	// poll quantum.
	final, err := w.awaitTerminal(c, accepted.ID)
	t.terminal = time.Now()
	if err != nil {
		return t, err
	}
	if final.State != string(server.JobDone) {
		return t, fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
	}

	resp, err = c.Get(w.ts.URL + "/v1/jobs/" + accepted.ID + "/reports")
	if err != nil {
		return t, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.done = time.Now()
	if err != nil {
		return t, err
	}
	if resp.StatusCode != http.StatusOK {
		return t, fmt.Errorf("GET reports of %s: %s: %s", accepted.ID, resp.Status, payload)
	}
	return t, w.checkPayload(job, payload)
}

// awaitTerminal reads the job's SSE stream to its terminal "done" event.
func (w *serveWorkload) awaitTerminal(c *http.Client, id string) (server.JobDTO, error) {
	var final server.JobDTO
	resp, err := c.Get(w.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return final, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return final, fmt.Errorf("GET events of %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	terminal := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			terminal = true
		} else if data, ok := strings.CutPrefix(line, "data: "); ok && terminal {
			return final, json.Unmarshal([]byte(data), &final)
		}
	}
	if err := sc.Err(); err != nil {
		return final, err
	}
	return final, fmt.Errorf("event stream of %s ended without a done event", id)
}

// checkPayload enforces that identical request bodies produce
// byte-identical payloads: every body's first payload digest is kept and
// every later one compared with it.
func (w *serveWorkload) checkPayload(job serveJob, payload []byte) error {
	digest := sha256.Sum256(payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	want, seen := w.payloads[job.shape]
	if !seen {
		w.payloads[job.shape] = digest
	} else if want != digest {
		return fmt.Errorf("shape %d: payload digest %x differs from the first %x for the same body", job.shape, digest[:8], want[:8])
	}
	return nil
}

// client is one closed-loop caller: it draws and runs jobs until stop
// returns true.
func (w *serveWorkload) client(c *http.Client, s *samples, stop func(done int) bool) {
	for n := 0; !stop(n); n++ {
		w.mu.Lock()
		job := w.next()
		w.mu.Unlock()
		root := w.rec.begin("server.job", -1)
		t, err := w.doJob(c, job)
		w.rec.end(root)
		w.mu.Lock()
		if err != nil {
			s.fail(err)
			if errors.Is(err, errRejected) {
				w.rejected++
			}
		} else {
			s.add(t.done, t.done.Sub(t.start).Seconds(), 1)
			if w.rec != nil {
				w.recordPhases(root, job, t)
			}
		}
		w.mu.Unlock()
	}
}

// recordPhases keeps the traced run's per-phase spans and latencies.
func (w *serveWorkload) recordPhases(root int, job serveJob, t jobTimes) {
	w.rec.add("server.accept", root, t.start, t.accepted)
	w.rec.add("server.queue_run", root, t.accepted, t.terminal)
	w.rec.add("server.reports_fetch", root, t.terminal, t.done)
	w.accept = append(w.accept, t.accepted.Sub(t.start).Seconds())
	w.queueRun = append(w.queueRun, t.terminal.Sub(t.accepted).Seconds())
	w.fetch = append(w.fetch, t.done.Sub(t.terminal).Seconds())
	done := t.done.Sub(t.start).Seconds()
	if job.shape == 0 {
		w.hitDone = append(w.hitDone, done)
	} else {
		w.missDone = append(w.missDone, done)
	}
}

// clients runs the closed loop on all clients and waits for them.
func (w *serveWorkload) clients(s *samples, stop func(done int) bool) {
	var wg sync.WaitGroup
	for _, c := range w.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.client(c, s, stop)
		}()
	}
	wg.Wait()
}

// warmJobs is the discarded warm-up each client drains in set-up: it
// fills the cache with the base configuration, grows the heap and opens
// the keep-alive connections.
const warmJobs = 250

// warm also pins the base payload to the direct facade: the server must
// return exactly what Run plus the report renderer produce.
func (w *serveWorkload) warm() error {
	var s samples
	w.clients(&s, func(done int) bool { return done >= warmJobs })
	if s.failed > 0 {
		return fmt.Errorf("%d warm-up jobs failed: %s", s.failed, strings.Join(s.errs, "; "))
	}
	return w.pinBasePayload()
}

// pinBasePayload runs the base job once more, checks its payload against
// a direct uncached facade run of the same request, and records the
// golden outputs.
func (w *serveWorkload) pinBasePayload() error {
	w.mu.Lock()
	var base serveJob
	for base = w.next(); base.shape != 0; base = w.next() {
	}
	w.mu.Unlock()
	var req server.RunRequest
	if err := json.Unmarshal(base.body, &req); err != nil {
		return err
	}
	cfg, err := server.DecodeConfig(req.Config)
	if err != nil {
		return err
	}
	topo, _, err := req.Topology.ToTopology()
	if err != nil {
		return err
	}
	res, err := scalesim.New(cfg).Run(context.Background(), topo, scalesim.WithParallelism(1))
	if err != nil {
		return err
	}
	var files []server.ReportFileDTO
	for _, r := range res.Reports().All() {
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			return err
		}
		files = append(files, server.ReportFileDTO{Name: r.Filename(), Content: buf.String()})
	}
	want, err := json.MarshalIndent(server.RunReportsDTO{Kind: "run", Reports: files}, "", "  ")
	if err != nil {
		return err
	}
	digest := sha256.Sum256(want)
	if got := w.payloads[0]; got != digest {
		return fmt.Errorf("base payload digest %x differs from the direct facade run's %x", got[:8], digest[:8])
	}
	sum := res.Summary()
	w.first = runOutputs{SHA256: hex.EncodeToString(digest[:]), Cycles: sum.TotalCycles,
		StallCycles: sum.TotalStallCycles, EnergyMJ: sum.TotalEnergyMJ}
	return nil
}

func (w *serveWorkload) run(deadline time.Time, minIters int, s *samples) {
	w.clients(s, func(done int) bool {
		return done*serveClients >= minIters && !time.Now().Before(deadline)
	})
}

// verify has nothing left to do: every payload of the run was compared
// with the first payload of its request body as it arrived.
func (w *serveWorkload) verify() []string { return nil }

func (w *serveWorkload) outputs() runOutputs { return w.first }

func (w *serveWorkload) close() error {
	for _, c := range w.callers {
		c.CloseIdleConnections()
	}
	w.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return w.srv.Drain(ctx)
}

func (w *serveWorkload) ledger(m metrics, spans []span, iters int) {
	m["server.accept_ms_p50"] = median(w.accept) * 1e3
	m["server.accept_ms_p99"] = percentile(w.accept, 99) * 1e3
	m["server.queue_run_ms_p50"] = median(w.queueRun) * 1e3
	m["server.reports_fetch_us_p50"] = median(w.fetch) * 1e6
	m["server.hit_done_ms_p50"] = median(w.hitDone) * 1e3
	m["server.miss_done_ms_p50"] = median(w.missDone) * 1e3
	m["server.rejected"] = float64(w.rejected)
	phases := total(spans, "server.accept") + total(spans, "server.queue_run") + total(spans, "server.reports_fetch")
	m["scalesim.ledger_coverage"] = phases.Seconds() / total(spans, "server.job").Seconds()
	m["scalesim.sim_cycles"] = float64(w.first.Cycles)
	m["simcache.hit_ratio"] = w.cache.Stats().HitRate()
}
