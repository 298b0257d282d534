// Package server implements the scalesim job server: an HTTP/JSON API over
// the Run, Sweep and Explore facades backed by one async job queue and a
// bounded worker pool that drains it. All jobs in a process share one
// layer-result cache, so repeated shapes across clients hit warm entries.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"scalesim"
	"scalesim/internal/config"
	"scalesim/internal/topology"
)

// The DTO layer decodes workloads and requests from stable JSON shapes.
// The configuration has no mirror type: config.Config's json tags are the
// request schema, its enums travel as strings ("os"/"ws"/"is",
// "ellpack_block"/"csr"/"csc", "spatial"/...), and json.Marshal of a Config
// is a valid "config" body.

// configRequest is the "config" object of a request: a Config plus the
// optional preset naming the base the remaining fields override.
type configRequest struct {
	Preset string `json:"preset"`
	scalesim.Config
}

// DecodeConfig materializes a configuration from raw request JSON: the
// preset ("default" when absent, "tpu" or "eyeriss") is the base, present
// fields override it (so clients send only the knobs they change), unknown
// fields are rejected (a typoed knob must not silently fall back to the
// default), and the result is validated with the config package's
// field-named errors.
func DecodeConfig(raw json.RawMessage) (scalesim.Config, error) {
	if len(raw) == 0 {
		raw = json.RawMessage("{}")
	}
	// Two passes: a lenient one for the preset alone, which picks the base
	// the strict one overlays.
	var probe struct {
		Preset string `json:"preset"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return scalesim.Config{}, fmt.Errorf("config: %w", err)
	}
	base, err := config.Preset(probe.Preset)
	if err != nil {
		return scalesim.Config{}, fmt.Errorf("config: %w", err)
	}
	req := configRequest{Config: base}
	if err := decodeRequest(raw, &req); err != nil {
		// The enum decoders' errors already read "config: <Field>: ...".
		if !strings.HasPrefix(err.Error(), "config: ") {
			err = fmt.Errorf("config: %w", err)
		}
		return scalesim.Config{}, err
	}
	cfg := req.Config
	if len(cfg.MultiCore.Cores) == 0 {
		// "cores":[] and an absent list are the same machine and must be the
		// same cache fingerprint (the hasher tells nil from empty).
		cfg.MultiCore.Cores = nil
	}
	if err := cfg.Validate(); err != nil {
		return scalesim.Config{}, err
	}
	return cfg, nil
}

// TopologyDTO names a workload: either a builtin model from the zoo or an
// explicit layer list. Sparsity, when set, forces an N:M annotation onto
// every layer (like the CLI's -sparsity flag) and enables sparse modeling.
type TopologyDTO struct {
	Builtin  string     `json:"builtin,omitempty"`
	Name     string     `json:"name,omitempty"`
	Layers   []LayerDTO `json:"layers,omitempty"`
	Sparsity string     `json:"sparsity,omitempty"`
}

// LayerDTO is one workload layer; Kind is "conv" or "gemm". Conv layers use
// the geometry fields, GEMM layers use M, N, K.
type LayerDTO struct {
	Name string `json:"name,omitempty"`
	Kind string `json:"kind"`

	IfmapH     int `json:"ifmap_h,omitempty"`
	IfmapW     int `json:"ifmap_w,omitempty"`
	FilterH    int `json:"filter_h,omitempty"`
	FilterW    int `json:"filter_w,omitempty"`
	Channels   int `json:"channels,omitempty"`
	NumFilters int `json:"num_filters,omitempty"`
	Stride     int `json:"stride,omitempty"`

	M int `json:"m,omitempty"`
	N int `json:"n,omitempty"`
	K int `json:"k,omitempty"`

	Sparsity string `json:"sparsity,omitempty"`
}

// ToTopology materializes the workload. The returned bool reports whether
// a forced sparsity annotation was applied (the caller should then enable
// sparse modeling in the configuration).
func (d *TopologyDTO) ToTopology() (*scalesim.Topology, bool, error) {
	var topo *scalesim.Topology
	switch {
	case d.Builtin != "" && len(d.Layers) > 0:
		return nil, false, fmt.Errorf("topology: builtin and layers are mutually exclusive")
	case d.Builtin != "":
		t, err := scalesim.BuiltinTopology(d.Builtin)
		if err != nil {
			return nil, false, err
		}
		topo = t
	case len(d.Layers) > 0:
		t := &scalesim.Topology{Name: d.Name}
		for i, ld := range d.Layers {
			l, err := ld.toLayer()
			if err != nil {
				return nil, false, fmt.Errorf("topology: layers[%d]: %w", i, err)
			}
			t.Layers = append(t.Layers, l)
		}
		topo = t
	default:
		return nil, false, fmt.Errorf("topology: need builtin or layers")
	}
	forced := false
	if d.Sparsity != "" {
		sp, err := scalesim.ParseSparsity(d.Sparsity)
		if err != nil {
			return nil, false, err
		}
		if !sp.Dense() {
			topo = topo.WithSparsity(sp)
			forced = true
		}
	}
	if err := topo.Validate(); err != nil {
		return nil, false, err
	}
	return topo, forced, nil
}

func (d *LayerDTO) toLayer() (scalesim.Layer, error) {
	var l scalesim.Layer
	l.Name = d.Name
	switch strings.ToLower(strings.TrimSpace(d.Kind)) {
	case "conv":
		l.Kind = topology.Conv
		l.IfmapH, l.IfmapW = d.IfmapH, d.IfmapW
		l.FilterH, l.FilterW = d.FilterH, d.FilterW
		l.Channels, l.NumFilters, l.Stride = d.Channels, d.NumFilters, d.Stride
	case "gemm":
		l.Kind = topology.GEMM
		l.M, l.N, l.K = d.M, d.N, d.K
	default:
		return l, fmt.Errorf("unknown layer kind %q (valid: conv, gemm)", d.Kind)
	}
	if d.Sparsity != "" {
		sp, err := scalesim.ParseSparsity(d.Sparsity)
		if err != nil {
			return l, err
		}
		l.Sparsity = sp
	}
	return l, nil
}

// TopologyToDTO converts a workload to its explicit-layer JSON shape.
func TopologyToDTO(t *scalesim.Topology) TopologyDTO {
	d := TopologyDTO{Name: t.Name}
	for _, l := range t.Layers {
		ld := LayerDTO{Name: l.Name, Kind: l.Kind.String()}
		switch l.Kind {
		case topology.Conv:
			ld.IfmapH, ld.IfmapW = l.IfmapH, l.IfmapW
			ld.FilterH, ld.FilterW = l.FilterH, l.FilterW
			ld.Channels, ld.NumFilters, ld.Stride = l.Channels, l.NumFilters, l.Stride
		case topology.GEMM:
			ld.M, ld.N, ld.K = l.M, l.N, l.K
		}
		if !l.Sparsity.Dense() {
			ld.Sparsity = l.Sparsity.String()
		}
		d.Layers = append(d.Layers, ld)
	}
	return d
}

// jobOptions are the per-job knobs every job request carries. Embedded, its
// fields are promoted: they sit at the top level of the request body.
type jobOptions struct {
	// Parallelism is the job's worker-pool width (0: the server default).
	Parallelism int `json:"parallelism,omitempty"`
	// Fidelity selects the simulation tier: "analytical" or "event"
	// (default). A screening explore job promotes candidates to it.
	Fidelity string `json:"fidelity,omitempty"`
	// TimeoutS, when positive, bounds the job's execution wall time — a
	// sweep's as a whole, not per point — overriding the server's
	// -job-timeout default; a job exceeding it fails with a deadline error.
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// RunRequest is the body of POST /v1/runs.
type RunRequest struct {
	Config   json.RawMessage `json:"config,omitempty"`
	Topology TopologyDTO     `json:"topology"`
	jobOptions
}

// SweepPointDTO is one point of a SweepRequest.
type SweepPointDTO struct {
	Name     string          `json:"name"`
	Config   json.RawMessage `json:"config,omitempty"`
	Topology TopologyDTO     `json:"topology"`
}

// SweepRequest is the body of POST /v1/sweeps.
type SweepRequest struct {
	Points []SweepPointDTO `json:"points"`
	jobOptions
}

// ExploreRequest is the body of POST /v1/explore. Space and Objectives use
// the same string specs as the explore CLI ("array=16..128:pow2;..." and
// "cycles,energy").
type ExploreRequest struct {
	Config     json.RawMessage `json:"config,omitempty"`
	Topology   TopologyDTO     `json:"topology"`
	Space      string          `json:"space"`
	Objectives string          `json:"objectives,omitempty"`
	Strategy   string          `json:"strategy,omitempty"`
	Budget     int             `json:"budget,omitempty"`
	Seed       int64           `json:"seed,omitempty"`
	Batch      int             `json:"batch,omitempty"`
	// PromoteTopK > 0 or PromoteMargin > 0 enables two-phase
	// screen-and-promote: the budget is screened analytically, then the
	// analytical front plus the top-K / margin-qualified candidates are
	// promoted to the accurate tier.
	PromoteTopK   int     `json:"promote_top_k,omitempty"`
	PromoteMargin float64 `json:"promote_margin,omitempty"`
	jobOptions
}

// decodeRequest decodes a request body (or its config object) into dst,
// rejecting unknown fields and anything but whitespace after the one JSON
// value. Config objects stay raw in the request types and are decoded by
// DecodeConfig, which applies the preset first.
func decodeRequest(r []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(r))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("unexpected data after the JSON value at offset %d", dec.InputOffset())
	}
	return nil
}

// ReportFileDTO is one rendered report in a job's reports payload.
type ReportFileDTO struct {
	Name    string `json:"name"`
	Content string `json:"content"`
}

// RunReportsDTO is the reports payload of a run job.
type RunReportsDTO struct {
	Kind    string          `json:"kind"` // "run"
	Reports []ReportFileDTO `json:"reports"`
}

// SweepPointReportsDTO is one point of a sweep job's reports payload.
// Exactly one of Error and Reports is populated.
type SweepPointReportsDTO struct {
	Name    string          `json:"name"`
	Error   string          `json:"error,omitempty"`
	Reports []ReportFileDTO `json:"reports,omitempty"`
}

// SweepReportsDTO is the reports payload of a sweep job.
type SweepReportsDTO struct {
	Kind   string                 `json:"kind"` // "sweep"
	Points []SweepPointReportsDTO `json:"points"`
}

// ExploreReportsDTO is the reports payload of an explore job: the frontier
// files plus search accounting.
type ExploreReportsDTO struct {
	Kind       string `json:"kind"` // "explore"
	Strategy   string `json:"strategy"`
	Seed       int64  `json:"seed"`
	Fidelity   string `json:"fidelity"`
	Evaluated  int    `json:"evaluated"`
	Infeasible int    `json:"infeasible"`
	// Screened/Promoted report the two-phase accounting; both are 0 for a
	// single-tier search.
	Screened int             `json:"screened,omitempty"`
	Promoted int             `json:"promoted,omitempty"`
	Reports  []ReportFileDTO `json:"reports"`
}

// CacheStatsDTO is the per-job layer-cache accounting in job status.
type CacheStatsDTO struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// ProgressDTO is the job's progress counter: units are layers for run jobs,
// sweep points for sweep jobs and candidate evaluations for explore jobs.
// For a screened exploration, Done/Total track the current phase and
// EvalsByFidelity accumulates the per-tier evaluation counts ("analytical",
// "event") across phases.
type ProgressDTO struct {
	Done            int            `json:"done"`
	Total           int            `json:"total"`
	EvalsByFidelity map[string]int `json:"evals_by_fidelity,omitempty"`
}

// JobDTO is the JSON shape of a job, returned by the enqueue endpoints,
// GET /v1/jobs and GET /v1/jobs/{id}.
type JobDTO struct {
	ID         string        `json:"id"`
	Kind       string        `json:"kind"`
	State      string        `json:"state"`
	Created    string        `json:"created"`
	Started    string        `json:"started,omitempty"`
	Finished   string        `json:"finished,omitempty"`
	Progress   ProgressDTO   `json:"progress"`
	CacheStats CacheStatsDTO `json:"cache_stats"`
	Error      string        `json:"error,omitempty"`
}
