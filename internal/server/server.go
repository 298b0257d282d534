package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"scalesim"
	"scalesim/internal/diskstore"
	"scalesim/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Shards is the number of workers draining the one FIFO job queue, so
	// it bounds how many jobs simulate concurrently. Non-positive selects
	// GOMAXPROCS.
	Shards int
	// QueueDepth is the queue capacity per worker: the queue holds
	// Shards x QueueDepth jobs, and an enqueue into a full queue is
	// rejected with 503 rather than blocking the client. Non-positive
	// selects 64.
	QueueDepth int
	// Cache is the process-wide layer-result cache every job runs behind,
	// so repeated shapes across clients hit warm entries. Nil selects the
	// scalesim.SharedCache.
	Cache *scalesim.Cache
	// Parallelism is the default per-job worker-pool width (layers of a
	// run, points of a sweep). Non-positive selects 1 — the workers are the
	// intended source of cross-job concurrency; requests may override per
	// job.
	Parallelism int
	// MaxJobs bounds the job history: once exceeded, the oldest finished
	// jobs (with their retained report payloads) are evicted, so clients
	// must fetch reports before MaxJobs newer jobs complete. Queued and
	// running jobs are never evicted. Non-positive selects 1024.
	MaxJobs int
	// Executor, when non-nil, replaces in-process simulation: every
	// accepted job — after this server's own request validation — is handed
	// to it with the job kind and raw request body, and its returned bytes
	// become the job's reports payload verbatim. Coordinator mode plugs in
	// here (see internal/coordinator); the job queue, states, events and
	// report endpoints behave identically either way.
	Executor Executor
	// Logger receives the server's structured logs (job lifecycle at Info,
	// per-request access logs at Debug). Every job line carries the job ID;
	// the started and finished lines also name the worker. Nil discards all
	// logs.
	Logger *slog.Logger
	// JobTimeout is the default per-job execution deadline, enforced via
	// context; a job exceeding it fails with a deadline error instead of
	// wedging its worker. Requests may override per job with timeout_s.
	// Zero means no default deadline.
	JobTimeout time.Duration
	// MaxQueueWait bounds admission: when the estimated time a new job
	// would spend queued (backlog per worker x average job duration)
	// exceeds it, the job is rejected with 503 + Retry-After instead of
	// being accepted into a wait the client would have abandoned anyway. Zero disables
	// the estimate (only full queues reject).
	MaxQueueWait time.Duration
	// Journal, when non-nil, write-ahead-logs every accepted job spec so a
	// crash between acceptance and completion loses nothing: pass the
	// records OpenJournal recovered as JournalRecords and New re-enqueues
	// every job that never reached a terminal state.
	Journal        *diskstore.Journal
	JournalRecords [][]byte
	// JobHook, when non-nil, runs at the start of every job execution on
	// the worker that took the job. internal/faultinject injects worker
	// crashes here; a hook panic fails the job terminally, it never kills
	// the worker.
	JobHook func(jobID string)
	// FaultCounts, when non-nil, samples injected-fault totals by kind for
	// the scalesim_faults_injected_total metric (faultinject.Plan.Counts).
	FaultCounts func() map[string]int64
}

// Executor runs accepted jobs somewhere other than this process.
// Implementations must preserve the determinism bar: identical requests
// yield byte-identical payloads.
type Executor interface {
	Execute(ctx context.Context, kind string, body []byte) (payload []byte, cache scalesim.RunCacheStats, err error)
}

var (
	errDraining  = errors.New("server is draining, not accepting jobs")
	errQueueFull = errors.New("job queue full, retry later")
)

// runFn executes a job; the returned payload is the rendered reports JSON.
type runFn = func(ctx context.Context, j *Job) ([]byte, scalesim.RunCacheStats, error)

// admissionError is a shed-load rejection that tells the client when to
// come back (the 503's Retry-After header).
type admissionError struct {
	err        error
	retryAfter time.Duration
}

func (e *admissionError) Error() string { return e.err.Error() }
func (e *admissionError) Unwrap() error { return e.err }

// maxRequestBytes bounds request bodies; a topology of a few thousand
// layers fits comfortably.
const maxRequestBytes = 8 << 20

// Server is the scalesim job server: one async FIFO job queue over the
// Run, Sweep and Explore facades, drained by a bounded worker pool.
type Server struct {
	opts  Options
	cache *scalesim.Cache
	log   *slog.Logger

	baseCtx   context.Context
	forceStop context.CancelFunc

	mu       sync.Mutex
	seq      int
	jobs     map[string]*Job
	order    []string // job IDs in accept order
	draining bool
	accepted int64
	resumed  int64 // jobs re-enqueued from the journal at startup
	// jobDurEWMA is the exponentially weighted average job duration in
	// seconds (0 until the first job finishes); admission control scales it
	// by the backlog per worker to estimate queue wait.
	jobDurEWMA float64

	// queue is the one FIFO every worker drains; capacity Shards x
	// QueueDepth.
	queue chan *Job
	wg    sync.WaitGroup

	// Metric instruments; the remaining families are scrape-time
	// collectors registered in initMetrics.
	reg           *telemetry.Registry
	httpInFlight  *telemetry.Gauge
	httpRequests  *telemetry.CounterVec
	httpDuration  *telemetry.HistogramVec
	jobsCompleted *telemetry.CounterVec
	exploreEvals  *telemetry.CounterVec
}

// New builds a Server and starts its workers. Call Drain to stop.
func New(opts Options) *Server {
	if opts.Shards <= 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = 1
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 1024
	}
	cache := opts.Cache
	if cache == nil {
		cache = scalesim.SharedCache()
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		cache:     cache,
		log:       log,
		baseCtx:   ctx,
		forceStop: cancel,
		jobs:      make(map[string]*Job),
		queue:     make(chan *Job, opts.Shards*opts.QueueDepth),
	}
	s.initMetrics()
	// Resume journaled jobs before the workers start draining the queue,
	// so recovered work keeps its accept order ahead of new requests.
	if opts.Journal != nil {
		s.resumeJournal(opts.JournalRecords)
	}
	for i := 0; i < opts.Shards; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

// Shards returns the resolved worker count.
func (s *Server) Shards() int { return s.opts.Shards }

// worker takes jobs off the shared queue until Drain closes it. Jobs
// canceled while queued are skipped by tryStart.
func (s *Server) worker(id int) {
	defer s.wg.Done()
	for j := range s.queue {
		ctx, cancel := context.WithCancel(s.baseCtx)
		if j.timeout > 0 {
			// The per-job deadline: however wedged the workload is, the
			// context expires, the facade unwinds, and the worker moves on.
			dctx, dcancel := context.WithTimeout(ctx, j.timeout)
			ctx = dctx
			prev := cancel
			cancel = func() { dcancel(); prev() }
		}
		if !j.tryStart(cancel) {
			cancel()
			s.journalTerminal(j)
			s.jobsCompleted.With(string(j.State())).Inc()
			continue
		}
		s.log.Info("job started", "job_id", j.ID(), "worker_id", id, "kind", j.kind)
		ctx = telemetry.WithJobID(ctx, j.ID())
		payload, cache, err := s.runJob(ctx, j)
		cancel()
		j.finish(payload, cache, err)
		s.journalTerminal(j)
		s.observeJobDuration(j)
		state := j.State()
		s.jobsCompleted.With(string(state)).Inc()
		if err != nil {
			s.log.Warn("job finished", "job_id", j.ID(), "worker_id", id,
				"state", string(state), "error", err)
		} else {
			s.log.Info("job finished", "job_id", j.ID(), "worker_id", id,
				"state", string(state), "payload_bytes", len(payload))
		}
	}
}

// runJob executes the job behind the fault hook and a panic barrier: a
// panicking job — a workload bug or an injected worker crash — fails
// terminally instead of taking down its worker, so the queue keeps
// draining.
func (s *Server) runJob(ctx context.Context, j *Job) (payload []byte, cache scalesim.RunCacheStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	if hook := s.opts.JobHook; hook != nil {
		hook(j.ID())
	}
	return j.run(ctx, j)
}

// observeJobDuration folds a finished job's wall time into the EWMA that
// admission control uses to estimate queue wait.
func (s *Server) observeJobDuration(j *Job) {
	d := j.duration()
	if d <= 0 {
		return
	}
	const alpha = 0.3
	s.mu.Lock()
	if s.jobDurEWMA == 0 {
		s.jobDurEWMA = d.Seconds()
	} else {
		s.jobDurEWMA = alpha*d.Seconds() + (1-alpha)*s.jobDurEWMA
	}
	s.mu.Unlock()
}

// Drain stops accepting new jobs, lets queued and running jobs finish, and
// returns when every worker has exited. If ctx expires first, running jobs
// are canceled and Drain returns ctx's error after they unwind.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.forceStop()
		<-done
		return ctx.Err()
	}
}

// enqueue registers the job and puts it on the queue, where the next free
// worker takes it. Admission is refused with 503 + Retry-After when the
// queue is full, or when the estimated queue wait exceeds the configured
// bound. Accepted jobs are journaled before the 202 goes out, so an
// acknowledged job survives a crash.
func (s *Server) enqueue(kind string, body []byte, timeout time.Duration, run runFn) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	if s.opts.MaxQueueWait > 0 {
		if wait := s.queueWaitLocked(); wait > s.opts.MaxQueueWait {
			return nil, &admissionError{
				err: fmt.Errorf("estimated queue wait %s exceeds the %s admission bound",
					wait.Round(time.Millisecond), s.opts.MaxQueueWait),
				retryAfter: wait - s.opts.MaxQueueWait,
			}
		}
	}
	j, err := s.placeLocked(kind, body, timeout, run)
	if err != nil {
		return nil, err
	}
	s.journalAcceptedLocked(j, body)
	s.log.Info("job accepted", "job_id", j.id, "kind", kind)
	return j, nil
}

// placeLocked assigns the next job ID, registers the job and queues it, or
// refuses it when the queue is full. It does not journal; enqueue and
// resumeJournal layer their own write-ahead records around it.
//
// Everything the 202 body reports (Job.acceptedDTO) is written before the
// channel send hands the job to a worker. The send cannot block: s.mu is
// held and this is the only sender, so a queue seen below capacity still
// has room.
func (s *Server) placeLocked(kind string, body []byte, timeout time.Duration, run runFn) (*Job, error) {
	if len(s.queue) == cap(s.queue) {
		return nil, &admissionError{err: errQueueFull, retryAfter: s.retryAfterLocked()}
	}
	id := fmt.Sprintf("job-%06d", s.seq+1)
	j := &Job{id: id, kind: kind, created: time.Now(), state: JobQueued, timeout: timeout, run: run}
	s.seq++
	s.accepted++
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.evictOldJobsLocked()
	s.queue <- j
	return j, nil
}

// queueWaitLocked estimates how long a job enqueued now would wait: the
// current backlog spread across the workers, scaled by the average job
// duration. Zero until the first job finishes — an idle server admits
// everything.
func (s *Server) queueWaitLocked() time.Duration {
	perWorker := float64(len(s.queue)) / float64(s.opts.Shards)
	return time.Duration(perWorker * s.jobDurEWMA * float64(time.Second))
}

// retryAfterLocked is the pace the server asks shed load to retry at: one
// average job duration (one slot should free up by then), floored at a
// second.
func (s *Server) retryAfterLocked() time.Duration {
	d := time.Duration(s.jobDurEWMA * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	return d
}

// evictOldJobsLocked drops the oldest *terminal* jobs (and their retained
// report payloads) once the history exceeds MaxJobs, so a long-lived
// server does not accumulate every payload it ever rendered. Queued and
// running jobs are never evicted, whatever their age.
func (s *Server) evictOldJobsLocked() {
	excess := len(s.order) - s.opts.MaxJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if excess > 0 && s.jobs[id].State().Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// lookup finds a job by ID.
func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for kind, k := range jobKinds {
		mux.HandleFunc(k.route, func(w http.ResponseWriter, r *http.Request) {
			s.handleEnqueue(w, r, kind)
		})
	}
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/reports", s.handleReports)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.instrument(mux)
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response write errors are the client's problem
}

// httpError writes an {"error": ...} response. Validation and parse errors
// pass through verbatim so clients see the offending field by name.
func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// readBody slurps a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		return nil, fmt.Errorf("reading request body: %w", err)
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return nil, errors.New("empty request body")
	}
	return body, nil
}

// requestError maps a request-decoding failure to its status code: 413 for
// an oversized body, 400 for everything else.
func requestError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	httpError(w, http.StatusBadRequest, err)
}

// enqueueError maps queue-admission failures to HTTP status codes. Shed
// load (full queues, exceeded wait bounds) carries Retry-After so clients
// back off at the pace the server asks for rather than guessing.
func enqueueError(w http.ResponseWriter, err error) {
	var adm *admissionError
	if errors.As(err, &adm) {
		secs := int64((adm.retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	httpError(w, http.StatusServiceUnavailable, err)
}

// handleEnqueue is the shared accept path of the three job endpoints:
// validate the body, build the run closure, admit, journal, 202. The 202
// body is the accept-time snapshot — always state "queued", whatever the
// worker has done with the job since; clients poll or stream for progress.
func (s *Server) handleEnqueue(w http.ResponseWriter, r *http.Request, kind string) {
	body, err := readBody(w, r)
	if err != nil {
		requestError(w, err)
		return
	}
	run, timeout, err := s.buildRun(kind, body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.enqueue(kind, body, timeout, run)
	if err != nil {
		enqueueError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.acceptedDTO())
}

// jobKinds is the job table: per kind, the route that accepts it and the
// builder that validates a request body into the in-process run closure and
// the request's timeout_s. Handler registers the routes from it and buildRun
// looks the builder up in it.
var jobKinds = map[string]struct {
	route string
	build func(s *Server, body []byte) (runFn, float64, error)
}{
	"run":     {"POST /v1/runs", (*Server).buildRunJob},
	"sweep":   {"POST /v1/sweeps", (*Server).buildSweepJob},
	"explore": {"POST /v1/explore", (*Server).buildExploreJob},
}

// buildRun validates body for kind and returns the job's run closure plus
// its resolved execution deadline. It is the single constructor used by
// both live requests and journal resume, so a restarted server re-checks
// recovered specs under exactly the request path's rules. With an Executor
// configured the validated body is handed to it instead of the in-process
// closure, so the Executor only ever sees well-formed bodies.
func (s *Server) buildRun(kind string, body []byte) (runFn, time.Duration, error) {
	k, ok := jobKinds[kind]
	if !ok {
		return nil, 0, fmt.Errorf("unknown job kind %q", kind)
	}
	run, timeoutS, err := k.build(s, body)
	if err != nil {
		return nil, 0, err
	}
	if ex := s.opts.Executor; ex != nil {
		run = func(ctx context.Context, _ *Job) ([]byte, scalesim.RunCacheStats, error) {
			return ex.Execute(ctx, kind, body)
		}
	}
	timeout, err := jobTimeout(timeoutS, s.opts.JobTimeout)
	if err != nil {
		return nil, 0, err
	}
	return run, timeout, nil
}

// jobTimeout converts timeout_s to the job's deadline: def for 0, at least
// 1ns otherwise. A negative value, or one a time.Duration cannot hold,
// would convert to a deadline of zero or less, which means none.
func jobTimeout(seconds float64, def time.Duration) (time.Duration, error) {
	switch d := seconds * float64(time.Second); {
	case !(d >= 0 && d < math.MaxInt64):
		return 0, fmt.Errorf("timeout_s: %v is not a non-negative number of seconds a time.Duration can hold", seconds)
	case d == 0:
		return def, nil
	default:
		return max(time.Duration(d), 1), nil
	}
}

// resolveWorkload is the (config, topology) half every job kind shares:
// decode the configuration over its preset, materialize the topology and,
// for a topology-wide N:M annotation, turn sparse modeling on and
// re-validate — the sparsity section was validated with the model off.
func resolveWorkload(rawCfg json.RawMessage, td *TopologyDTO) (scalesim.Config, *scalesim.Topology, error) {
	cfg, err := DecodeConfig(rawCfg)
	if err != nil {
		return cfg, nil, err
	}
	topo, forcedSparse, err := td.ToTopology()
	if err != nil {
		return cfg, nil, err
	}
	if forcedSparse {
		cfg.Sparsity.Enabled = true
		if err := cfg.Validate(); err != nil {
			return cfg, nil, err
		}
	}
	return cfg, topo, nil
}

// resolve validates the request's fidelity, naming the field in the error,
// and resolves its pool width against the server default.
func (o jobOptions) resolve(defaultPar int) (scalesim.Fidelity, int, error) {
	fid, err := scalesim.ParseFidelity(o.Fidelity)
	if err != nil {
		return fid, 0, fmt.Errorf("fidelity: %w", err)
	}
	if o.Parallelism > 0 {
		return fid, o.Parallelism, nil
	}
	return fid, defaultPar, nil
}

// buildRunJob validates a run request — one topology simulated under one
// configuration — and builds its closure.
func (s *Server) buildRunJob(body []byte) (runFn, float64, error) {
	var req RunRequest
	if err := decodeRequest(body, &req); err != nil {
		return nil, 0, err
	}
	cfg, topo, err := resolveWorkload(req.Config, &req.Topology)
	if err != nil {
		return nil, 0, err
	}
	fid, par, err := req.resolve(s.opts.Parallelism)
	if err != nil {
		return nil, 0, err
	}
	return func(ctx context.Context, j *Job) ([]byte, scalesim.RunCacheStats, error) {
		res, err := scalesim.New(cfg).Run(ctx, topo,
			scalesim.WithCache(s.cache),
			scalesim.WithParallelism(par),
			scalesim.WithFidelity(fid),
			scalesim.WithProgress(func(p scalesim.LayerProgress) {
				j.setProgress(p.Done, p.Total)
			}))
		if err != nil {
			return nil, scalesim.RunCacheStats{}, err
		}
		files, err := renderReportSet(res.Reports())
		if err != nil {
			return nil, res.CacheStats, err
		}
		payload, err := marshalPayload(RunReportsDTO{Kind: "run", Reports: files})
		return payload, res.CacheStats, err
	}, req.TimeoutS, nil
}

// buildSweepJob validates a sweep request — many (config, topology) points
// on one worker pool behind the shared cache — and builds its closure.
func (s *Server) buildSweepJob(body []byte) (runFn, float64, error) {
	var req SweepRequest
	if err := decodeRequest(body, &req); err != nil {
		return nil, 0, err
	}
	if len(req.Points) == 0 {
		return nil, 0, errors.New("sweep: empty points list")
	}
	pts := make([]scalesim.SweepPoint, len(req.Points))
	for i := range req.Points {
		p := &req.Points[i]
		cfg, topo, err := resolveWorkload(p.Config, &p.Topology)
		if err != nil {
			return nil, 0, fmt.Errorf("points[%d]: %w", i, err)
		}
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("point%03d", i)
		}
		pts[i] = scalesim.SweepPoint{Name: name, Config: cfg, Topology: topo}
	}
	fid, par, err := req.resolve(s.opts.Parallelism)
	if err != nil {
		return nil, 0, err
	}
	return func(ctx context.Context, j *Job) ([]byte, scalesim.RunCacheStats, error) {
		results, err := scalesim.Sweep(ctx, pts,
			scalesim.WithCache(s.cache),
			scalesim.WithParallelism(par),
			scalesim.WithFidelity(fid),
			scalesim.WithSweepProgress(func(p scalesim.SweepPointProgress) {
				j.setProgress(p.Done, p.Total)
			}))
		if err != nil {
			return nil, scalesim.RunCacheStats{}, err
		}
		out := SweepReportsDTO{Kind: "sweep", Points: make([]SweepPointReportsDTO, len(results))}
		var cache scalesim.RunCacheStats
		for i, sr := range results {
			out.Points[i].Name = sr.Point.Name
			if sr.Err != nil {
				out.Points[i].Error = sr.Err.Error()
				continue
			}
			cache.Hits += sr.Result.CacheStats.Hits
			cache.Misses += sr.Result.CacheStats.Misses
			files, err := renderReportSet(sr.Result.Reports())
			if err != nil {
				return nil, cache, err
			}
			out.Points[i].Reports = files
		}
		payload, err := marshalPayload(out)
		return payload, cache, err
	}, req.TimeoutS, nil
}

// buildExploreJob validates a design-space exploration request (space and
// objective specs use the explore CLI's string grammar) and builds its
// closure.
func (s *Server) buildExploreJob(body []byte) (runFn, float64, error) {
	var req ExploreRequest
	if err := decodeRequest(body, &req); err != nil {
		return nil, 0, err
	}
	cfg, topo, err := resolveWorkload(req.Config, &req.Topology)
	if err != nil {
		return nil, 0, err
	}
	if req.Space == "" {
		return nil, 0, errors.New("explore: missing space")
	}
	space, err := scalesim.ParseSpace(req.Space)
	if err != nil {
		return nil, 0, err
	}
	objSpec := req.Objectives
	if objSpec == "" {
		objSpec = "cycles"
	}
	objs, err := scalesim.ParseObjectives(objSpec)
	if err != nil {
		return nil, 0, err
	}
	strategy, err := scalesim.ParseSearchStrategy(req.Strategy)
	if err != nil {
		return nil, 0, err
	}
	budget := req.Budget
	if budget <= 0 {
		budget = 64
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	batch := req.Batch
	if batch <= 0 {
		batch = 8
	}
	fid, par, err := req.resolve(s.opts.Parallelism)
	if err != nil {
		return nil, 0, err
	}
	if req.PromoteTopK < 0 {
		return nil, 0, fmt.Errorf("promote_top_k: must be >= 0, got %d", req.PromoteTopK)
	}
	if req.PromoteMargin < 0 {
		return nil, 0, fmt.Errorf("promote_margin: must be >= 0, got %g", req.PromoteMargin)
	}
	// The closure outlives the request (finished jobs are kept for MaxJobs):
	// it captures the resolved values, not req and its raw bodies.
	topK, margin := req.PromoteTopK, req.PromoteMargin
	return func(ctx context.Context, j *Job) ([]byte, scalesim.RunCacheStats, error) {
		frontier, err := scalesim.Explore(ctx, cfg, topo, space,
			scalesim.WithExploreObjectives(objs...),
			scalesim.WithExploreStrategy(strategy),
			scalesim.WithExploreBudget(budget),
			scalesim.WithExploreSeed(seed),
			scalesim.WithExploreBatchSize(batch),
			scalesim.WithExploreParallelism(par),
			scalesim.WithExploreCache(s.cache),
			scalesim.WithExploreFidelity(fid),
			scalesim.WithPromoteTopK(topK),
			scalesim.WithPromoteMargin(margin),
			scalesim.WithExploreProgress(func(p scalesim.ExploreProgress) {
				j.countEval(p.Fidelity.String())
				s.exploreEvals.With(p.Fidelity.String()).Inc()
				j.setProgress(p.Evaluated, p.Budget)
			}))
		if err != nil {
			var cache scalesim.RunCacheStats
			if frontier != nil {
				cache = frontier.CacheStats
			}
			return nil, cache, err
		}
		files, err := renderReports(frontier.CSVReport(), frontier.JSONReport())
		if err != nil {
			return nil, frontier.CacheStats, err
		}
		payload, err := marshalPayload(ExploreReportsDTO{
			Kind:       "explore",
			Strategy:   frontier.Strategy,
			Seed:       frontier.Seed,
			Fidelity:   frontier.Fidelity.String(),
			Evaluated:  frontier.Evaluated,
			Infeasible: frontier.Infeasible,
			Screened:   frontier.Screened,
			Promoted:   frontier.Promoted,
			Reports:    files,
		})
		return payload, frontier.CacheStats, err
	}, req.TimeoutS, nil
}

// handleJobs lists all jobs in accept order.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := struct {
		Jobs []JobDTO `json:"jobs"`
	}{Jobs: make([]JobDTO, len(jobs))}
	for i, j := range jobs {
		out.Jobs[i] = j.dto()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleJob returns one job's status.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.dto())
}

// handleCancel cancels a queued or running job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	if !j.requestCancel() {
		httpError(w, http.StatusConflict, fmt.Errorf("job %s already %s", j.ID(), j.State()))
		return
	}
	// A queued job cancels immediately; record the terminal state now so a
	// restart does not resurrect it. Running jobs are journaled by their
	// worker when they unwind.
	if j.State().Terminal() {
		s.journalTerminal(j)
	}
	writeJSON(w, http.StatusOK, j.dto())
}

// handleReports returns the rendered reports payload of a done job. The
// payload bytes are stored at completion, so identical jobs return
// byte-identical responses.
func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	payload, ok := j.reports()
	if !ok {
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s, reports exist only for done jobs", j.ID(), j.State()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(payload) //nolint:errcheck
}

// handleEvents streams job snapshots as server-sent events: one "job"
// event per state/progress change and a terminal "done" event when the job
// finishes. Clients that prefer polling use GET /v1/jobs/{id} instead.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, errors.New("streaming unsupported by this connection"))
		return
	}
	ch, unsubscribe := j.subscribe()
	defer unsubscribe()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", j.eventJSON())
				flusher.Flush()
				return
			}
			fmt.Fprintf(w, "event: job\ndata: %s\n\n", ev)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleHealth reports liveness.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	jobs := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": draining,
		"jobs":     jobs,
		"shards":   s.opts.Shards,
	})
}

// handleMetrics renders the server's metric registry — job, queue, cache,
// store, HTTP and any executor-registered families — in the Prometheus text
// format. Scrape-time collectors sample live state; see initMetrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer
	s.reg.WritePrometheus(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	w.Write(b.Bytes()) //nolint:errcheck
}

// renderReportSet renders every report of a set into memory in canonical
// order.
func renderReportSet(rs *scalesim.ReportSet) ([]ReportFileDTO, error) {
	return renderReports(rs.All()...)
}

// renderReports renders reports into memory in the given order.
func renderReports(reports ...*scalesim.Report) ([]ReportFileDTO, error) {
	var files []ReportFileDTO
	for _, rep := range reports {
		var buf bytes.Buffer
		if _, err := rep.WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("rendering %s: %w", rep.Filename(), err)
		}
		files = append(files, ReportFileDTO{Name: rep.Filename(), Content: buf.String()})
	}
	return files, nil
}

// marshalPayload renders a reports payload deterministically: identical
// results yield byte-identical payloads.
func marshalPayload(v any) ([]byte, error) {
	return json.MarshalIndent(v, "", "  ")
}
