package server

import (
	"encoding/json"
	"fmt"
	"time"

	"scalesim"
)

// The job write-ahead journal makes "202 Accepted" a durable promise.
// Every accepted job appends an accepted record — job ID, kind, raw
// request body, resolved deadline — before the acknowledgment goes out,
// and every job reaching a terminal state appends a terminal record. A
// job is pending iff its accepted record has no terminal record; on
// restart the server re-validates and re-enqueues every pending spec
// under a fresh ID, and journals a "resumed" terminal record against the
// old ID (new-accepted before old-resumed, so a crash between the two
// duplicates a job rather than losing one — re-running a deterministic
// job is safe, dropping it is not).
//
// Records are JSON payloads inside diskstore's checksummed entry framing
// (see diskstore.Journal), so journal recovery inherits the store log's
// proven rules: torn tails truncate, damaged records drop, order is
// preserved.

// journalRecord is one journal entry. State "accepted" records carry the
// job spec; terminal records ("done", "failed", "canceled", "resumed")
// carry only the ID they close out.
type journalRecord struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Kind     string          `json:"kind,omitempty"`
	Body     json.RawMessage `json:"body,omitempty"`
	TimeoutS float64         `json:"timeout_s,omitempty"`
}

// journalStateResumed closes out a pending record whose job was handed a
// fresh ID by resume; the other terminal states mirror JobState values.
const journalStateResumed = "resumed"

// journalAcceptedLocked write-ahead-logs a newly accepted job. Journal
// failures degrade durability, not availability: the job still runs, the
// failure is logged loudly.
func (s *Server) journalAcceptedLocked(j *Job, body []byte) {
	if s.opts.Journal == nil {
		return
	}
	rec := journalRecord{
		ID:       j.id,
		State:    "accepted",
		Kind:     j.kind,
		Body:     json.RawMessage(body),
		TimeoutS: j.timeout.Seconds(),
	}
	if err := s.appendJournal(rec); err != nil {
		s.log.Warn("job journal append failed; job will run but would not survive a restart",
			"job_id", j.id, "error", err)
	}
}

// journalTerminal records a job reaching a terminal state, closing out its
// accepted record so a restart will not re-run it.
func (s *Server) journalTerminal(j *Job) {
	if s.opts.Journal == nil {
		return
	}
	state := j.State()
	if !state.Terminal() {
		return
	}
	if err := s.appendJournal(journalRecord{ID: j.ID(), State: string(state)}); err != nil {
		s.log.Warn("job journal append failed; job may be re-run after a restart",
			"job_id", j.ID(), "error", err)
	}
}

// appendJournal marshals and appends one record.
func (s *Server) appendJournal(rec journalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return s.opts.Journal.Append(b)
}

// resumeJournal replays recovered journal records, compacts the journal
// down to the still-pending specs, and re-enqueues each pending job under
// a fresh ID. A pending spec that no longer validates — or that cannot be
// placed because the queue is full — becomes a visible failed
// job rather than silently vanishing: the invariant is that every
// journaled job reaches a terminal state somebody can observe.
func (s *Server) resumeJournal(records [][]byte) {
	pending := pendingJournalRecords(records)
	if len(pending) > 0 {
		// Compact first: the rewritten journal holds exactly the pending
		// accepted records, so journal growth is bounded by live work, not
		// by history. The resume appends below land after this baseline.
		compacted := make([][]byte, 0, len(pending))
		for _, rec := range pending {
			b, err := json.Marshal(rec)
			if err != nil {
				continue
			}
			compacted = append(compacted, b)
		}
		if err := s.opts.Journal.Rewrite(compacted); err != nil {
			s.log.Warn("job journal compaction failed; resuming against the uncompacted journal", "error", err)
		}
	} else {
		if err := s.opts.Journal.Rewrite(nil); err != nil {
			s.log.Warn("job journal compaction failed", "error", err)
		}
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range pending {
		s.resumeOneLocked(rec)
	}
}

// pendingJournalRecords reduces a journal replay to the accepted records
// with no terminal record, in accept order.
func pendingJournalRecords(records [][]byte) []journalRecord {
	var accepted []journalRecord
	closed := make(map[string]bool)
	for _, raw := range records {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil || rec.ID == "" {
			// The framing checksum passed but the JSON does not parse: a
			// record from a different version, or hand-edited. Skip it.
			continue
		}
		if rec.State == "accepted" {
			accepted = append(accepted, rec)
			continue
		}
		closed[rec.ID] = true
	}
	pending := accepted[:0]
	for _, rec := range accepted {
		if !closed[rec.ID] {
			pending = append(pending, rec)
		}
	}
	return pending
}

// resumeOneLocked re-enqueues one pending record under a fresh ID. The new
// accepted record is journaled before the old ID's resumed record, so a
// crash between the two re-runs the job instead of losing it.
func (s *Server) resumeOneLocked(rec journalRecord) {
	run, timeout, err := s.buildRun(rec.Kind, rec.Body)
	if err == nil {
		timeout, err = jobTimeout(rec.TimeoutS, timeout)
	}
	var j *Job
	if err == nil {
		j, err = s.placeLocked(rec.Kind, rec.Body, timeout, run)
	}
	if err != nil {
		// Spec no longer valid or no room: surface a terminal failed job
		// instead of dropping the record on the floor.
		j, _ = s.placeFailedLocked(rec.Kind, fmt.Errorf("resuming journaled job %s: %w", rec.ID, err))
		s.log.Warn("journaled job could not be resumed",
			"old_job_id", rec.ID, "kind", rec.Kind, "error", err)
		if j != nil {
			s.journalAcceptedLocked(j, rec.Body)
			s.journalTerminal(j)
		}
		s.appendResumed(rec.ID)
		return
	}
	s.resumed++
	s.journalAcceptedLocked(j, rec.Body)
	s.appendResumed(rec.ID)
	s.log.Info("job resumed from journal", "old_job_id", rec.ID, "job_id", j.id, "kind", rec.Kind)
}

// appendResumed closes out an old journal ID after resume.
func (s *Server) appendResumed(oldID string) {
	if err := s.appendJournal(journalRecord{ID: oldID, State: journalStateResumed}); err != nil {
		s.log.Warn("job journal append failed; job may be duplicated after another restart",
			"job_id", oldID, "error", err)
	}
}

// placeFailedLocked registers a job directly in a terminal failed state:
// the visible tombstone for a journaled spec that could not be resumed.
func (s *Server) placeFailedLocked(kind string, err error) (*Job, error) {
	id := fmt.Sprintf("job-%06d", s.seq+1)
	j := &Job{id: id, kind: kind, state: JobQueued, created: time.Now()}
	s.seq++
	s.accepted++
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.evictOldJobsLocked()
	j.finish(nil, scalesim.RunCacheStats{}, err)
	s.jobsCompleted.With(string(j.State())).Inc()
	return j, nil
}
