package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"scalesim"
)

// JobState is the lifecycle of a job: queued → running → one of the
// terminal states (done, failed, canceled).
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job is one queued unit of simulation work: a run, sweep or exploration.
// id, kind, created and timeout are fixed before the job is handed to a
// worker; run belongs to that worker; everything below mu is guarded by
// it.
type Job struct {
	id      string
	kind    string
	created time.Time
	// timeout is the job's execution deadline (0 = none), resolved at
	// accept time from the request's timeout_s or the server default and
	// enforced by its worker via context.
	timeout time.Duration

	// run executes the job; it is called exactly once, by the worker that
	// takes the job off the queue. The returned payload is the rendered
	// reports JSON.
	run func(ctx context.Context, j *Job) (payload []byte, cache scalesim.RunCacheStats, err error)

	mu         sync.Mutex
	state      JobState
	started    time.Time
	finished   time.Time
	progress   ProgressDTO
	cacheStats scalesim.RunCacheStats
	err        error
	payload    []byte
	cancel     context.CancelFunc
	subs       map[chan []byte]struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// dto snapshots the job for JSON responses.
func (j *Job) dto() JobDTO {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dtoLocked()
}

// acceptedDTO is the job as it was accepted: built only from the fields
// fixed before the worker saw it, so it always reports "queued" and never
// races the job's progress.
func (j *Job) acceptedDTO() JobDTO {
	return JobDTO{
		ID:      j.id,
		Kind:    j.kind,
		State:   string(JobQueued),
		Created: j.created.UTC().Format(time.RFC3339Nano),
	}
}

func (j *Job) dtoLocked() JobDTO {
	d := j.acceptedDTO()
	d.State = string(j.state)
	d.Progress = j.progress
	d.CacheStats = CacheStatsDTO{Hits: j.cacheStats.Hits, Misses: j.cacheStats.Misses}
	if j.progress.EvalsByFidelity != nil {
		// Snapshots are marshaled after the lock is released; hand out a
		// copy so in-flight countEval calls cannot race the encoder.
		m := make(map[string]int, len(j.progress.EvalsByFidelity))
		for k, v := range j.progress.EvalsByFidelity {
			m[k] = v
		}
		d.Progress.EvalsByFidelity = m
	}
	if !j.started.IsZero() {
		d.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		d.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.err != nil {
		d.Error = j.err.Error()
	}
	return d
}

// tryStart transitions queued → running and installs the cancel func for
// DELETE. It returns false when the job was canceled while queued (the
// worker must then skip it).
func (j *Job) tryStart(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	j.publishLocked()
	return true
}

// finish records the job's outcome and wakes SSE subscribers with the final
// state event.
func (j *Job) finish(payload []byte, cache scalesim.RunCacheStats, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.run = nil // release the captured request state; only the payload stays
	j.finished = time.Now()
	j.cacheStats = cache
	switch {
	case err == nil:
		j.state = JobDone
		j.payload = payload
	case errors.Is(err, context.DeadlineExceeded):
		// Exceeding the job deadline is a failure the client must see as
		// one — "canceled" would read as somebody's intent.
		j.state = JobFailed
		j.err = fmt.Errorf("job deadline exceeded after %s: %w", j.timeout, err)
	case errors.Is(err, context.Canceled):
		j.state = JobCanceled
		j.err = err
	default:
		j.state = JobFailed
		j.err = err
	}
	j.publishLocked()
	for ch := range j.subs {
		close(ch)
		delete(j.subs, ch)
	}
}

// requestCancel cancels the job: a queued job transitions straight to
// canceled; a running job has its context canceled and will finish as
// canceled when the facade returns. Returns false when the job was already
// terminal.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	if j.state == JobQueued {
		j.state = JobCanceled
		j.run = nil // released here since finish never runs for skipped jobs
		j.finished = time.Now()
		j.err = context.Canceled
		j.publishLocked()
		for ch := range j.subs {
			close(ch)
			delete(j.subs, ch)
		}
		j.mu.Unlock()
		return true
	}
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// setProgress updates the progress counter and notifies SSE subscribers.
// The per-fidelity evaluation counts survive the reset — they accumulate
// across a screened exploration's phases.
func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	evals := j.progress.EvalsByFidelity
	j.progress = ProgressDTO{Done: done, Total: total, EvalsByFidelity: evals}
	j.publishLocked()
}

// countEval bumps the progress counter for one candidate evaluated at the
// named fidelity tier, alongside setProgress's phase-relative counters.
func (j *Job) countEval(fidelity string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.progress.EvalsByFidelity == nil {
		j.progress.EvalsByFidelity = make(map[string]int, 2)
	}
	j.progress.EvalsByFidelity[fidelity]++
}

// duration returns the job's wall time, 0 until it finished running.
func (j *Job) duration() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() || j.finished.IsZero() {
		return 0
	}
	return j.finished.Sub(j.started)
}

// reports returns the rendered payload of a done job, or false when the
// job is not done.
func (j *Job) reports() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone {
		return nil, false
	}
	return j.payload, true
}

// subscribe registers an SSE subscriber and returns its event channel plus
// an unsubscribe func. The first event (the current snapshot) is delivered
// immediately; the channel is closed when the job reaches a terminal state
// or the subscriber unsubscribes. Slow subscribers drop intermediate
// events rather than blocking the worker.
func (j *Job) subscribe() (<-chan []byte, func()) {
	ch := make(chan []byte, 16)
	j.mu.Lock()
	ch <- j.eventLocked()
	if j.state.Terminal() {
		close(ch)
		j.mu.Unlock()
		return ch, func() {}
	}
	if j.subs == nil {
		j.subs = make(map[chan []byte]struct{})
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// eventLocked renders the job snapshot as one SSE data payload.
func (j *Job) eventLocked() []byte {
	b, _ := json.Marshal(j.dtoLocked())
	return b
}

// eventJSON renders the job snapshot for the terminal SSE event.
func (j *Job) eventJSON() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.eventLocked()
}

// publishLocked fans the current snapshot out to subscribers, dropping the
// event for subscribers whose buffer is full (they will still get the
// terminal close).
func (j *Job) publishLocked() {
	if len(j.subs) == 0 {
		return
	}
	ev := j.eventLocked()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}
