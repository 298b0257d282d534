package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a module. Times are offsets from the recorder's start.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int // index of the causing span, -1 for a root
}

// recorder keeps spans in memory for the traced run. The nil recorder is
// the tracing-off fast path: begin returns -1 and end does nothing, so
// workload code calls it unconditionally.
type recorder struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// begin opens a span under parent (-1 for none) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records an already-measured interval (used where the boundary is a
// callback timestamp rather than a call the benchmark brackets).
func (r *recorder) add(name string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0), End: end.Sub(r.t0), Parent: parent})
	r.mu.Unlock()
}

// total sums the durations of the closed spans named name.
func total(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return d
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := time.Duration(0), s.Start
		for _, c := range ivs {
			lo, hi := max(c.lo, edge), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// totalSelf sums the self times of the spans named name.
func totalSelf(spans []span, name string) time.Duration {
	self := selfTimes(spans)
	var d time.Duration
	for i, s := range spans {
		if s.Name == name {
			d += self[i]
		}
	}
	return d
}

// writeChromeTrace writes the spans as Chrome trace-event JSON
// (chrome://tracing, ui.perfetto.dev): complete events, microseconds, one
// track per root span chain, the parent id and workload in args.
func (r *recorder) writeChromeTrace(dir string) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	// Concurrent clients open overlapping root spans; each root takes the
	// first track that is free at its start (spans are in start order) and
	// its descendants follow it, so clients render side by side.
	track := make([]int, len(spans))
	var laneEnd []time.Duration
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		if s.Parent < 0 {
			lane := 0
			for lane < len(laneEnd) && laneEnd[lane] > s.Start {
				lane++
			}
			if lane == len(laneEnd) {
				laneEnd = append(laneEnd, 0)
			}
			laneEnd[lane] = s.End
			track[i] = lane + 1
		} else {
			track[i] = track[s.Parent]
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: track[i],
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": r.workload},
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
