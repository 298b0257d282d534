// Package coordinator fans scalesim jobs out to a fleet of worker servers
// with fleet-wide result reuse. It plugs into internal/server as the
// Executor: the coordinator process accepts the same job API as a worker,
// but instead of simulating, each accepted job is
//
//  1. fingerprinted — a content-addressed key over (kind, canonicalized
//     request), so semantically identical requests collide;
//  2. answered from the payload store when a previous job with the same
//     fingerprint already rendered its reports (warm or persisted);
//  3. coalesced server-side — identical in-flight jobs dispatch once and
//     share the payload;
//  4. otherwise dispatched to a healthy worker over the normal HTTP job
//     API (enqueue, poll, fetch reports), with bounded retry-with-backoff
//     that reroutes the job when its worker dies mid-flight.
//
// Because workers render reports deterministically and the coordinator
// passes payload bytes through verbatim, a job's reports are byte-identical
// at any worker count, whether computed, coalesced or replayed from the
// store.
package coordinator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scalesim"
	"scalesim/internal/diskstore"
	"scalesim/internal/simcache"
	"scalesim/internal/telemetry"
)

// Options configures a Coordinator.
type Options struct {
	// Workers lists worker base URLs (e.g. http://127.0.0.1:8081). At least
	// one is required.
	Workers []string
	// StoreDir, when non-empty, persists rendered payloads to a diskstore
	// there, so a restarted coordinator keeps answering known jobs without
	// touching workers. Empty keeps payload reuse in-memory only.
	StoreDir string
	// StoreBytes bounds the payload store's log (diskstore.DefaultMaxBytes
	// when non-positive).
	StoreBytes int64
	// HealthInterval is the worker /healthz probe period. Default 2s.
	HealthInterval time.Duration
	// PollInterval is the job-status poll period while a dispatched job
	// runs. Default 25ms.
	PollInterval time.Duration
	// RetryBackoff is the pause before re-dispatching a failed attempt,
	// doubling per retry. Default 100ms.
	RetryBackoff time.Duration
	// MaxAttempts bounds dispatch attempts per job (first try included).
	// Default: number of workers + 1, so a job survives one worker dying
	// even in a single-worker fleet.
	MaxAttempts int
	// RequestTimeout bounds each individual HTTP exchange with a worker
	// (enqueue, one status poll, reports fetch) via a per-request context
	// deadline. Default 10s. This deliberately does NOT bound a whole
	// dispatch attempt: a long-running job is bounded by its own job
	// deadline on the worker, while every coordinator/worker round trip
	// stays individually short.
	RequestTimeout time.Duration
	// DialTimeout bounds establishing a TCP connection to a worker.
	// Default 5s.
	DialTimeout time.Duration
	// WrapTransport, when set, wraps the coordinator's HTTP transport —
	// the fault-injection seam. It is applied on top of the transport
	// that already carries the dial and response-header timeouts.
	WrapTransport func(http.RoundTripper) http.RoundTripper
	// StoreFS overrides the payload store's filesystem (fault injection);
	// nil uses the real OS filesystem.
	StoreFS diskstore.FS
	// Logger receives the coordinator's structured logs: dispatches and
	// retries (with the triggering error and target worker) at Info/Warn,
	// worker health transitions at Info. Every dispatch line carries the
	// job ID the serving process stamped on the context. Nil discards.
	Logger *slog.Logger
}

// worker is one fleet member with its latest observed health.
type worker struct {
	url     string
	healthy atomic.Bool
}

// flightCall is one in-flight dispatch shared by coalesced jobs.
type flightCall struct {
	done    chan struct{}
	payload []byte
	cache   scalesim.RunCacheStats
	err     error
}

// Coordinator dispatches jobs to workers with store-first reuse. It
// implements server.Executor. Safe for concurrent use.
type Coordinator struct {
	opts    Options
	client  *http.Client
	log     *slog.Logger
	workers []*worker
	rr      atomic.Uint64 // round-robin dispatch cursor

	storeMu sync.Mutex
	store   *diskstore.Store // nil without StoreDir
	mem     *simcache.Cache  // bounded payload reuse when no store is configured

	flightMu sync.Mutex
	flight   map[simcache.Key]*flightCall

	dispatches  atomic.Int64
	retries     atomic.Int64
	resubmits   atomic.Int64
	storeHits   atomic.Int64
	storeMisses atomic.Int64

	stopHealth context.CancelFunc
	healthDone chan struct{}
}

// New builds a Coordinator, opens its payload store (when configured) and
// starts the worker health prober. Call Close to stop.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("coordinator: no workers configured")
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = 2 * time.Second
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 25 * time.Millisecond
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 100 * time.Millisecond
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = len(opts.Workers) + 1
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 10 * time.Second
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	// No http.Client.Timeout: that would bound the whole exchange including
	// the body read with one global number. Instead each request carries a
	// context deadline (RequestTimeout) and the transport bounds the two
	// hang-prone phases — dialing and waiting for response headers.
	transport := &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   opts.DialTimeout,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		ResponseHeaderTimeout: opts.RequestTimeout,
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       90 * time.Second,
	}
	var rt http.RoundTripper = transport
	if opts.WrapTransport != nil {
		rt = opts.WrapTransport(rt)
	}
	c := &Coordinator{
		opts:   opts,
		client: &http.Client{Transport: rt},
		log:    log,
		flight: make(map[simcache.Key]*flightCall),
		mem:    simcache.New(0, 0),
	}
	for _, u := range opts.Workers {
		w := &worker{url: u}
		w.healthy.Store(true) // optimistic until the first probe
		c.workers = append(c.workers, w)
	}
	if opts.StoreDir != "" {
		s, err := diskstore.Open(opts.StoreDir, diskstore.Options{MaxBytes: opts.StoreBytes, FS: opts.StoreFS})
		if err != nil {
			return nil, err
		}
		c.store = s
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.stopHealth = cancel
	c.healthDone = make(chan struct{})
	go c.healthLoop(ctx)
	return c, nil
}

// Close stops the health prober and closes the payload store (snapshotting
// its index).
func (c *Coordinator) Close() error {
	c.stopHealth()
	<-c.healthDone
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	if c.store == nil {
		return nil
	}
	err := c.store.Close()
	c.store = nil
	return err
}

// Workers returns the configured worker URLs.
func (c *Coordinator) Workers() []string { return c.opts.Workers }

// kindPath maps job kinds to their enqueue endpoints.
func kindPath(kind string) (string, error) {
	switch kind {
	case "run":
		return "/v1/runs", nil
	case "sweep":
		return "/v1/sweeps", nil
	case "explore":
		return "/v1/explore", nil
	}
	return "", fmt.Errorf("coordinator: unknown job kind %q", kind)
}

// Fingerprint derives the content-addressed payload key for a validated
// request body: the kind plus the body canonicalized — JSON re-marshaled
// with sorted keys — minus the top-level parallelism and timeout_s knobs,
// which change scheduling and patience but never results. Requests that
// differ only in formatting, field order or those knobs therefore share
// one store entry.
func Fingerprint(kind string, body []byte) (simcache.Key, error) {
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		return simcache.Key{}, fmt.Errorf("coordinator: fingerprinting request: %w", err)
	}
	if m, ok := v.(map[string]any); ok {
		delete(m, "parallelism")
		delete(m, "timeout_s")
	}
	canon, err := json.Marshal(v) // map keys marshal in sorted order
	if err != nil {
		return simcache.Key{}, fmt.Errorf("coordinator: fingerprinting request: %w", err)
	}
	h := simcache.NewHasher()
	h.String("scalesim/coordinator/payload/v1")
	h.String(kind)
	h.Bytes(canon)
	return h.Sum(), nil
}

// Execute implements server.Executor: store lookup, single-flight, then
// dispatch with retry. The returned payload is a worker's rendered reports
// verbatim.
func (c *Coordinator) Execute(ctx context.Context, kind string, body []byte) ([]byte, scalesim.RunCacheStats, error) {
	key, err := Fingerprint(kind, body)
	if err != nil {
		return nil, scalesim.RunCacheStats{}, err
	}
	for {
		if payload, ok := c.storeGet(key); ok {
			c.storeHits.Add(1)
			return payload, scalesim.RunCacheStats{}, nil
		}
		c.flightMu.Lock()
		if call, ok := c.flight[key]; ok {
			c.flightMu.Unlock()
			select {
			case <-call.done:
			case <-ctx.Done():
				return nil, scalesim.RunCacheStats{}, ctx.Err()
			}
			if call.err == nil || !isCtxErr(call.err) {
				return call.payload, call.cache, call.err
			}
			// The computing job was canceled; this job is still live, so
			// loop and compute (or re-coalesce) on its own behalf.
			continue
		}
		call := &flightCall{done: make(chan struct{})}
		c.flight[key] = call
		c.flightMu.Unlock()

		c.storeMisses.Add(1)
		call.payload, call.cache, call.err = c.dispatch(ctx, kind, body)
		if call.err == nil {
			c.storePut(key, call.payload)
		}
		c.flightMu.Lock()
		delete(c.flight, key)
		c.flightMu.Unlock()
		close(call.done)
		return call.payload, call.cache, call.err
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// storeGet consults the payload store (disk or in-memory fallback).
func (c *Coordinator) storeGet(key simcache.Key) ([]byte, bool) {
	c.storeMu.Lock()
	s := c.store
	c.storeMu.Unlock()
	if s != nil {
		return s.Get(key)
	}
	payload, ok := c.mem.Get(key)
	if !ok {
		return nil, false
	}
	return payload.([]byte), true
}

// storePut persists a rendered payload (best-effort).
func (c *Coordinator) storePut(key simcache.Key, payload []byte) {
	c.storeMu.Lock()
	s := c.store
	c.storeMu.Unlock()
	if s != nil {
		_ = s.Put(key, payload)
		return
	}
	c.mem.Put(key, payload, int64(len(payload)))
}

// errNonRetryable wraps dispatch failures that rerouting cannot fix: the
// job itself failed or was rejected, rather than its worker dying.
type errNonRetryable struct{ err error }

func (e errNonRetryable) Error() string { return e.err.Error() }
func (e errNonRetryable) Unwrap() error { return e.err }

// errRetryAfter wraps a retryable refusal that carried an explicit
// Retry-After hint; dispatch waits at least that long before the next
// attempt instead of trusting its own backoff guess.
type errRetryAfter struct {
	err   error
	after time.Duration
}

func (e errRetryAfter) Error() string { return e.err.Error() }
func (e errRetryAfter) Unwrap() error { return e.err }

// parseRetryAfter reads an integer-seconds Retry-After header (the only
// form scalesim workers emit); 0 means absent or unparseable.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// dispatch runs the job on a worker, retrying with exponential backoff on
// another worker when the attempt fails retryably (worker unreachable,
// admission rejected, worker died mid-job).
func (c *Coordinator) dispatch(ctx context.Context, kind string, body []byte) ([]byte, scalesim.RunCacheStats, error) {
	jobID := telemetry.JobID(ctx)
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			backoff := c.opts.RetryBackoff << (attempt - 1)
			// An explicit Retry-After from the refusing worker outranks our
			// backoff guess when it asks for more patience.
			var ra errRetryAfter
			if errors.As(lastErr, &ra) && ra.after > backoff {
				backoff = ra.after
			}
			c.log.Warn("retrying dispatch", "job_id", jobID, "kind", kind,
				"attempt", attempt+1, "backoff", backoff, "error", lastErr)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, scalesim.RunCacheStats{}, ctx.Err()
			}
		}
		w := c.pickWorker()
		c.log.Info("dispatching job", "job_id", jobID, "kind", kind, "worker", w.url)
		payload, cache, err := c.runOn(ctx, w, kind, body)
		if err == nil {
			return payload, cache, nil
		}
		var fatal errNonRetryable
		if errors.As(err, &fatal) || isCtxErr(err) {
			return nil, cache, err
		}
		w.healthy.Store(false)
		lastErr = fmt.Errorf("worker %s: %w", w.url, err)
	}
	return nil, scalesim.RunCacheStats{},
		fmt.Errorf("coordinator: job not completed after %d attempts: %w", c.opts.MaxAttempts, lastErr)
}

// pickWorker returns the next healthy worker round-robin, falling back to
// a plain rotation when every worker looks down (their health may just be
// stale; dispatch failures will confirm).
func (c *Coordinator) pickWorker() *worker {
	n := uint64(len(c.workers))
	start := c.rr.Add(1) - 1
	for i := uint64(0); i < n; i++ {
		w := c.workers[(start+i)%n]
		if w.healthy.Load() {
			return w
		}
	}
	return c.workers[start%n]
}

// runOn executes one attempt on one worker: enqueue, poll to a terminal
// state, fetch the reports payload.
func (c *Coordinator) runOn(ctx context.Context, w *worker, kind string, body []byte) ([]byte, scalesim.RunCacheStats, error) {
	path, err := kindPath(kind)
	if err != nil {
		return nil, scalesim.RunCacheStats{}, errNonRetryable{err}
	}
	c.dispatches.Add(1)
	var accepted jobDTO
	status, hdr, err := c.doJSON(ctx, http.MethodPost, w.url+path, body, &accepted)
	if err != nil {
		return nil, scalesim.RunCacheStats{}, err // transport: retryable
	}
	switch {
	case status == http.StatusAccepted:
	case status >= 400 && status < 500:
		// The coordinator validated this request itself, so a 4xx here is
		// a worker/coordinator version skew — rerouting won't help.
		return nil, scalesim.RunCacheStats{},
			errNonRetryable{fmt.Errorf("worker rejected job with status %d", status)}
	default:
		// 503 queue-full/draining and other 5xx: try another worker,
		// honoring the worker's Retry-After when it sent one.
		refused := fmt.Errorf("worker refused job with status %d", status)
		if after := parseRetryAfter(hdr); after > 0 {
			return nil, scalesim.RunCacheStats{}, errRetryAfter{err: refused, after: after}
		}
		return nil, scalesim.RunCacheStats{}, refused
	}

	dto, err := c.pollJob(ctx, w, accepted.ID)
	if err != nil {
		return nil, scalesim.RunCacheStats{}, err
	}
	cache := scalesim.RunCacheStats{Hits: dto.CacheStats.Hits, Misses: dto.CacheStats.Misses}
	switch dto.State {
	case "done":
	case "failed":
		return nil, cache, errNonRetryable{fmt.Errorf("job failed on worker: %s", dto.Error)}
	default: // canceled on the worker side without our ctx being done
		return nil, cache, fmt.Errorf("job ended %s on worker", dto.State)
	}

	payload, err := c.fetchReports(ctx, w, accepted.ID)
	if err != nil {
		return nil, cache, err
	}
	return payload, cache, nil
}

// pollFailureBudget is how many consecutive poll failures runOn tolerates
// before declaring the worker dead and handing the job back for rerouting.
const pollFailureBudget = 5

// pollJob polls the job until a terminal state. Transient poll failures
// are tolerated up to pollFailureBudget in a row; a 404 means the worker
// restarted (a restarted worker resumes journaled jobs under fresh IDs, so
// the ID this coordinator holds no longer exists there) and fails the
// attempt immediately so dispatch resubmits without burning the failure
// budget. On ctx cancellation the job is best-effort canceled on the
// worker.
func (c *Coordinator) pollJob(ctx context.Context, w *worker, id string) (jobDTO, error) {
	failures := 0
	for {
		select {
		case <-ctx.Done():
			c.cancelJob(w, id)
			return jobDTO{}, ctx.Err()
		case <-time.After(c.opts.PollInterval):
		}
		var dto jobDTO
		status, _, err := c.doJSON(ctx, http.MethodGet, w.url+"/v1/jobs/"+id, nil, &dto)
		if err == nil && status == http.StatusNotFound {
			c.resubmits.Add(1)
			c.log.Warn("worker restarted mid-job; resubmitting", "worker", w.url, "job_id", id)
			return jobDTO{}, fmt.Errorf("worker restarted: job %s unknown", id)
		}
		if err != nil || status != http.StatusOK {
			failures++
			if failures >= pollFailureBudget {
				if err == nil {
					err = fmt.Errorf("polling job %s: status %d", id, status)
				}
				return jobDTO{}, fmt.Errorf("worker lost mid-job: %w", err)
			}
			continue
		}
		failures = 0
		if jobStateTerminal(dto.State) {
			return dto, nil
		}
	}
}

func jobStateTerminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// fetchReports retrieves a done job's payload bytes verbatim.
func (c *Coordinator) fetchReports(ctx context.Context, w *worker, id string) ([]byte, error) {
	rctx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, w.url+"/v1/jobs/"+id+"/reports", nil)
	if err != nil {
		return nil, errNonRetryable{err}
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetching reports for %s: status %d", id, resp.StatusCode)
	}
	return payload, nil
}

// cancelJob best-effort cancels a dispatched job whose coordinator-side
// job went away; detached from ctx, which is already done.
func (c *Coordinator) cancelJob(w *worker, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, w.url+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := c.client.Do(req); err == nil {
		resp.Body.Close()
	}
}

// jobDTO mirrors the worker API's job shape (the fields the coordinator
// reads).
type jobDTO struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Error      string `json:"error"`
	CacheStats struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache_stats"`
}

// doJSON issues one request under its own RequestTimeout deadline and
// decodes the JSON response into out (skipped on decode failure for
// non-2xx, where the body is an error payload). The response headers come
// back alongside the status so callers can read back-pressure hints.
func (c *Coordinator) doJSON(ctx context.Context, method, url string, body []byte, out any) (int, http.Header, error) {
	rctx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, resp.Header, err
	}
	if resp.StatusCode < 300 && out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, resp.Header, fmt.Errorf("decoding %s %s response: %w", method, url, err)
		}
	}
	return resp.StatusCode, resp.Header, nil
}

// healthLoop probes every worker's /healthz on a fixed period, flipping
// the health bit dispatch routing reads. One probe round also runs
// immediately so routing has real data as soon as possible.
func (c *Coordinator) healthLoop(ctx context.Context) {
	defer close(c.healthDone)
	probe := func() {
		var wg sync.WaitGroup
		for _, w := range c.workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				pctx, cancel := context.WithTimeout(ctx, c.opts.HealthInterval)
				defer cancel()
				req, err := http.NewRequestWithContext(pctx, http.MethodGet, w.url+"/healthz", nil)
				if err != nil {
					w.healthy.Store(false)
					return
				}
				resp, err := c.client.Do(req)
				if err != nil {
					if w.healthy.Swap(false) {
						c.log.Info("worker health changed", "worker", w.url, "healthy", false)
					}
					return
				}
				resp.Body.Close()
				up := resp.StatusCode == http.StatusOK
				if w.healthy.Swap(up) != up {
					c.log.Info("worker health changed", "worker", w.url, "healthy", up)
				}
			}(w)
		}
		wg.Wait()
	}
	probe()
	ticker := time.NewTicker(c.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			probe()
		}
	}
}

// RegisterMetrics implements server.MetricsRegistrar: the coordinator's
// counters join the serving process's /metrics registry as scrape-time
// collectors, rendered in the same sorted exposition as the server's own.
func (c *Coordinator) RegisterMetrics(reg *telemetry.Registry) {
	counter := func(name, help string, v *atomic.Int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	counter("scalesim_coordinator_dispatches_total",
		"Job dispatch attempts sent to workers.", &c.dispatches)
	counter("scalesim_coordinator_retries_total",
		"Dispatch attempts beyond each job's first.", &c.retries)
	counter("scalesim_coordinator_resubmits_total",
		"Jobs resubmitted after their worker restarted mid-flight.", &c.resubmits)
	counter("scalesim_coordinator_store_hits_total",
		"Jobs answered from the payload store.", &c.storeHits)
	counter("scalesim_coordinator_store_misses_total",
		"Jobs that had to be dispatched.", &c.storeMisses)
	reg.GaugeVecFunc("scalesim_coordinator_worker_up",
		"Worker health from the last probe (1 healthy).", []string{"worker"},
		func() []telemetry.Sample {
			samples := make([]telemetry.Sample, len(c.workers))
			for i, w := range c.workers {
				up := 0.0
				if w.healthy.Load() {
					up = 1
				}
				samples[i] = telemetry.Sample{LabelValues: []string{w.url}, Value: up}
			}
			return samples
		})
}
