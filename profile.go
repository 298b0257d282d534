package scalesim

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"scalesim/internal/telemetry"
)

// Profile is the wall-time attribution of a traced run (WithTrace):
// where the simulator itself spent its time, aggregated per stage and per
// layer from the run's span tree.
type Profile struct {
	// Wall is the run's total wall-clock time.
	Wall time.Duration
	// Stages aggregates stage spans across all layers, in descending
	// total-time order.
	Stages []StageProfile
	// Layers attributes time per topology layer, in topology order.
	Layers []LayerProfile
}

// StageProfile is the aggregate wall time of one pipeline stage.
type StageProfile struct {
	Name  string
	Total time.Duration
	Calls int
}

// LayerProfile is the wall time of one layer's trip through the pipeline.
type LayerProfile struct {
	Name string
	// Index is the layer's topology position.
	Index int
	// Total is the layer span's duration (cache lookup + all stages).
	Total time.Duration
	// Cached reports whether the layer was not simulated: served from the
	// layer cache, or a repeat copied from the earlier layer of its shape
	// (its span carries no stage children and a "copy_of" attribute
	// naming that layer's index).
	Cached bool
}

// Profile aggregates the run's telemetry spans into per-stage and
// per-layer wall-time attribution. It returns nil unless the run traced
// (WithTrace). At parallelism 1 the layer totals sum to (nearly) the
// run's wall time; under parallelism they sum to the pool's aggregate
// busy time instead.
func (r *Result) Profile() *Profile {
	if r.spans == nil {
		return nil
	}
	p := &Profile{Wall: r.wall}
	stageIdx := map[string]int{}
	for _, s := range r.spans {
		switch s.Cat {
		case "stage":
			i, ok := stageIdx[s.Name]
			if !ok {
				i = len(p.Stages)
				stageIdx[s.Name] = i
				p.Stages = append(p.Stages, StageProfile{Name: s.Name})
			}
			p.Stages[i].Total += s.Dur
			p.Stages[i].Calls++
		case "layer":
			lp := LayerProfile{Name: s.Name, Index: s.Track - 1, Total: s.Dur}
			for _, a := range s.Attrs {
				if a.Key == "index" {
					if v, ok := a.Value.(int); ok {
						lp.Index = v
					}
				}
				if a.Key == "cache" && a.Value == "hit" || a.Key == "copy_of" {
					lp.Cached = true
				}
			}
			p.Layers = append(p.Layers, lp)
		}
	}
	sort.Slice(p.Stages, func(i, j int) bool { return p.Stages[i].Total > p.Stages[j].Total })
	sort.Slice(p.Layers, func(i, j int) bool { return p.Layers[i].Index < p.Layers[j].Index })
	return p
}

// Spans returns the run's raw span records (nil unless traced). The
// records are a snapshot; mutating them does not affect the Result.
func (r *Result) Spans() []telemetry.SpanRecord {
	return append([]telemetry.SpanRecord(nil), r.spans...)
}

// String renders the attribution as a two-part table: stages (descending
// total time) then layers (topology order).
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall time: %v\n", p.Wall)
	fmt.Fprintf(&b, "%-12s %12s %8s\n", "stage", "total", "calls")
	for _, s := range p.Stages {
		fmt.Fprintf(&b, "%-12s %12v %8d\n", s.Name, s.Total, s.Calls)
	}
	fmt.Fprintf(&b, "%-24s %12s %s\n", "layer", "total", "cached")
	for _, l := range p.Layers {
		cached := ""
		if l.Cached {
			cached = "hit"
		}
		fmt.Fprintf(&b, "%-24s %12v %s\n", l.Name, l.Total, cached)
	}
	return b.String()
}
