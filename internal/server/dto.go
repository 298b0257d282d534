// Package server implements the scalesim job server: an HTTP/JSON API over
// the Run, Sweep and Explore facades backed by an async job queue and a
// bounded, sharded worker pool. All jobs in a process share one layer-result
// cache, so repeated shapes across clients hit warm entries.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"scalesim"
	"scalesim/internal/config"
	"scalesim/internal/topology"
)

// The DTO layer marshals the simulator's configuration and workload types
// to and from stable JSON shapes. Requests decode on top of a preset (so
// clients send only the knobs they change), reject unknown fields (a typoed
// knob must not silently fall back to the default), and pass the internal
// validators' field-named errors through verbatim.

// ConfigDTO is the JSON shape of a simulator configuration. Enum fields are
// strings ("os"/"ws"/"is", "ellpack_block"/"csr"/"csc", "spatial"/...), and
// the optional Preset names the base configuration the remaining fields
// override ("default", "tpu" or "eyeriss").
type ConfigDTO struct {
	Preset         string `json:"preset,omitempty"`
	RunName        string `json:"run_name,omitempty"`
	ArrayRows      int    `json:"array_rows"`
	ArrayCols      int    `json:"array_cols"`
	IfmapSRAMKB    int    `json:"ifmap_sram_kb"`
	FilterSRAMKB   int    `json:"filter_sram_kb"`
	OfmapSRAMKB    int    `json:"ofmap_sram_kb"`
	Dataflow       string `json:"dataflow"`
	BandwidthWords int    `json:"bandwidth_words"`
	WordBytes      int    `json:"word_bytes"`

	Sparsity  SparsityDTO  `json:"sparsity"`
	Memory    MemoryDTO    `json:"memory"`
	Layout    LayoutDTO    `json:"layout"`
	Energy    EnergyDTO    `json:"energy"`
	MultiCore MultiCoreDTO `json:"multi_core"`
}

// SparsityDTO mirrors config.SparsityConfig.
type SparsityDTO struct {
	Enabled          bool   `json:"enabled"`
	OptimizedMapping bool   `json:"optimized_mapping"`
	Format           string `json:"format"`
	BlockSize        int    `json:"block_size"`
	Seed             int64  `json:"seed"`
}

// MemoryDTO mirrors config.MemoryConfig.
type MemoryDTO struct {
	Enabled         bool   `json:"enabled"`
	Technology      string `json:"technology"`
	Channels        int    `json:"channels"`
	ReadQueueDepth  int    `json:"read_queue_depth"`
	WriteQueueDepth int    `json:"write_queue_depth"`
}

// LayoutDTO mirrors config.LayoutConfig.
type LayoutDTO struct {
	Enabled         bool `json:"enabled"`
	Banks           int  `json:"banks"`
	PortsPerBank    int  `json:"ports_per_bank"`
	OnChipBandwidth int  `json:"on_chip_bandwidth"`
}

// EnergyDTO mirrors config.EnergyConfig.
type EnergyDTO struct {
	Enabled      bool    `json:"enabled"`
	Technology   string  `json:"technology"`
	ClockGating  bool    `json:"clock_gating"`
	RowSize      int     `json:"row_size"`
	BankSize     int     `json:"bank_size"`
	FrequencyMHz float64 `json:"frequency_mhz"`
	IncludeDRAM  bool    `json:"include_dram"`
}

// CoreSpecDTO mirrors config.CoreSpec.
type CoreSpecDTO struct {
	Rows        int `json:"rows"`
	Cols        int `json:"cols"`
	SIMDLanes   int `json:"simd_lanes,omitempty"`
	SIMDLatency int `json:"simd_latency,omitempty"`
	NoPHops     int `json:"nop_hops,omitempty"`
}

// MultiCoreDTO mirrors config.MultiCoreConfig.
type MultiCoreDTO struct {
	Enabled       bool          `json:"enabled"`
	PartitionRows int           `json:"partition_rows"`
	PartitionCols int           `json:"partition_cols"`
	Strategy      string        `json:"strategy"`
	L2SizeKB      int           `json:"l2_size_kb"`
	Cores         []CoreSpecDTO `json:"cores,omitempty"`
	NonUniform    bool          `json:"non_uniform"`
	HopLatency    int           `json:"hop_latency"`
}

// ConfigToDTO converts an internal configuration to its JSON shape.
func ConfigToDTO(c scalesim.Config) ConfigDTO {
	d := ConfigDTO{
		RunName:        c.RunName,
		ArrayRows:      c.ArrayRows,
		ArrayCols:      c.ArrayCols,
		IfmapSRAMKB:    c.IfmapSRAMKB,
		FilterSRAMKB:   c.FilterSRAMKB,
		OfmapSRAMKB:    c.OfmapSRAMKB,
		Dataflow:       c.Dataflow.String(),
		BandwidthWords: c.BandwidthWords,
		WordBytes:      c.WordBytes,
		Sparsity: SparsityDTO{
			Enabled:          c.Sparsity.Enabled,
			OptimizedMapping: c.Sparsity.OptimizedMapping,
			Format:           c.Sparsity.Format.String(),
			BlockSize:        c.Sparsity.BlockSize,
			Seed:             c.Sparsity.Seed,
		},
		Memory: MemoryDTO{
			Enabled:         c.Memory.Enabled,
			Technology:      c.Memory.Technology,
			Channels:        c.Memory.Channels,
			ReadQueueDepth:  c.Memory.ReadQueueDepth,
			WriteQueueDepth: c.Memory.WriteQueueDepth,
		},
		Layout: LayoutDTO{
			Enabled:         c.Layout.Enabled,
			Banks:           c.Layout.Banks,
			PortsPerBank:    c.Layout.PortsPerBank,
			OnChipBandwidth: c.Layout.OnChipBandwidth,
		},
		Energy: EnergyDTO{
			Enabled:      c.Energy.Enabled,
			Technology:   c.Energy.Technology,
			ClockGating:  c.Energy.ClockGating,
			RowSize:      c.Energy.RowSize,
			BankSize:     c.Energy.BankSize,
			FrequencyMHz: c.Energy.FrequencyMHz,
			IncludeDRAM:  c.Energy.IncludeDRAM,
		},
		MultiCore: MultiCoreDTO{
			Enabled:       c.MultiCore.Enabled,
			PartitionRows: c.MultiCore.PartitionRows,
			PartitionCols: c.MultiCore.PartitionCols,
			Strategy:      c.MultiCore.Strategy.String(),
			L2SizeKB:      c.MultiCore.L2SizeKB,
			NonUniform:    c.MultiCore.NonUniform,
			HopLatency:    c.MultiCore.HopLatency,
		},
	}
	for _, core := range c.MultiCore.Cores {
		d.MultiCore.Cores = append(d.MultiCore.Cores, CoreSpecDTO{
			Rows: core.Rows, Cols: core.Cols,
			SIMDLanes: core.SIMDLanes, SIMDLatency: core.SIMDLatency,
			NoPHops: core.NoPHops,
		})
	}
	return d
}

// ToConfig converts the DTO back to an internal configuration. Enum parsing
// reuses the config package parsers so errors name the field and list the
// valid values; the result is not yet validated (call Config.Validate).
func (d *ConfigDTO) ToConfig() (scalesim.Config, error) {
	c := scalesim.Config{
		RunName:        d.RunName,
		ArrayRows:      d.ArrayRows,
		ArrayCols:      d.ArrayCols,
		IfmapSRAMKB:    d.IfmapSRAMKB,
		FilterSRAMKB:   d.FilterSRAMKB,
		OfmapSRAMKB:    d.OfmapSRAMKB,
		BandwidthWords: d.BandwidthWords,
		WordBytes:      d.WordBytes,
	}
	df, err := config.ParseDataflow(d.Dataflow)
	if err != nil {
		return c, err
	}
	c.Dataflow = df
	format, err := config.ParseSparseFormat(d.Sparsity.Format)
	if err != nil {
		return c, err
	}
	c.Sparsity = config.SparsityConfig{
		Enabled:          d.Sparsity.Enabled,
		OptimizedMapping: d.Sparsity.OptimizedMapping,
		Format:           format,
		BlockSize:        d.Sparsity.BlockSize,
		Seed:             d.Sparsity.Seed,
	}
	c.Memory = config.MemoryConfig{
		Enabled:         d.Memory.Enabled,
		Technology:      d.Memory.Technology,
		Channels:        d.Memory.Channels,
		ReadQueueDepth:  d.Memory.ReadQueueDepth,
		WriteQueueDepth: d.Memory.WriteQueueDepth,
	}
	c.Layout = config.LayoutConfig{
		Enabled:         d.Layout.Enabled,
		Banks:           d.Layout.Banks,
		PortsPerBank:    d.Layout.PortsPerBank,
		OnChipBandwidth: d.Layout.OnChipBandwidth,
	}
	c.Energy = config.EnergyConfig{
		Enabled:      d.Energy.Enabled,
		Technology:   d.Energy.Technology,
		ClockGating:  d.Energy.ClockGating,
		RowSize:      d.Energy.RowSize,
		BankSize:     d.Energy.BankSize,
		FrequencyMHz: d.Energy.FrequencyMHz,
		IncludeDRAM:  d.Energy.IncludeDRAM,
	}
	strategy, err := config.ParsePartitionStrategy(d.MultiCore.Strategy)
	if err != nil {
		return c, err
	}
	c.MultiCore = config.MultiCoreConfig{
		Enabled:       d.MultiCore.Enabled,
		PartitionRows: d.MultiCore.PartitionRows,
		PartitionCols: d.MultiCore.PartitionCols,
		Strategy:      strategy,
		L2SizeKB:      d.MultiCore.L2SizeKB,
		NonUniform:    d.MultiCore.NonUniform,
		HopLatency:    d.MultiCore.HopLatency,
	}
	for _, core := range d.MultiCore.Cores {
		c.MultiCore.Cores = append(c.MultiCore.Cores, config.CoreSpec{
			Rows: core.Rows, Cols: core.Cols,
			SIMDLanes: core.SIMDLanes, SIMDLatency: core.SIMDLatency,
			NoPHops: core.NoPHops,
		})
	}
	return c, nil
}

// DecodeConfig materializes a configuration from raw request JSON: the
// preset (default configuration when absent) is the base, present fields
// override it, unknown fields are rejected, and the result is validated
// with the config package's field-named errors.
func DecodeConfig(raw json.RawMessage) (scalesim.Config, error) {
	var probe struct {
		Preset string `json:"preset"`
	}
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &probe); err != nil {
			return scalesim.Config{}, fmt.Errorf("config: %w", err)
		}
	}
	base, err := config.Preset(probe.Preset)
	if err != nil {
		return scalesim.Config{}, fmt.Errorf("config: %w", err)
	}
	dto := ConfigToDTO(base)
	dto.Preset = probe.Preset
	if len(raw) > 0 {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&dto); err != nil {
			return scalesim.Config{}, fmt.Errorf("config: %w", err)
		}
	}
	cfg, err := dto.ToConfig()
	if err != nil {
		return scalesim.Config{}, err
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

// RunRequest is the body of POST /v1/runs. TimeoutS, when positive, bounds
// the job's execution wall time (overriding the server's -job-timeout
// default); a job exceeding it finishes failed with a deadline error.
type RunRequest struct {
	Config      json.RawMessage `json:"config,omitempty"`
	Topology    TopologyDTO     `json:"topology"`
	Parallelism int             `json:"parallelism,omitempty"`
	// Fidelity selects the simulation tier: "analytical" or "event"
	// (default).
	Fidelity string  `json:"fidelity,omitempty"`
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// SweepPointDTO is one point of a SweepRequest.
type SweepPointDTO struct {
	Name     string          `json:"name"`
	Config   json.RawMessage `json:"config,omitempty"`
	Topology TopologyDTO     `json:"topology"`
}

// SweepRequest is the body of POST /v1/sweeps. TimeoutS bounds the whole
// sweep job, not each point.
type SweepRequest struct {
	Points      []SweepPointDTO `json:"points"`
	Parallelism int             `json:"parallelism,omitempty"`
	// Fidelity selects the simulation tier for every point: "analytical"
	// or "event" (default).
	Fidelity string  `json:"fidelity,omitempty"`
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// ExploreRequest is the body of POST /v1/explore. Space and Objectives use
// the same string specs as the explore CLI ("array=16..128:pow2;..." and
// "cycles,energy").
type ExploreRequest struct {
	Config      json.RawMessage `json:"config,omitempty"`
	Topology    TopologyDTO     `json:"topology"`
	Space       string          `json:"space"`
	Objectives  string          `json:"objectives,omitempty"`
	Strategy    string          `json:"strategy,omitempty"`
	Budget      int             `json:"budget,omitempty"`
	Seed        int64           `json:"seed,omitempty"`
	Batch       int             `json:"batch,omitempty"`
	Parallelism int             `json:"parallelism,omitempty"`
	// Fidelity is the accurate simulation tier ("analytical" or "event",
	// the default); with screening enabled it is the tier promoted
	// candidates reach.
	Fidelity string `json:"fidelity,omitempty"`
	// PromoteTopK > 0 or PromoteMargin > 0 enables two-phase
	// screen-and-promote: the budget is screened analytically, then the
	// analytical front plus the top-K / margin-qualified candidates are
	// promoted to the accurate tier.
	PromoteTopK   int     `json:"promote_top_k,omitempty"`
	PromoteMargin float64 `json:"promote_margin,omitempty"`
	TimeoutS      float64 `json:"timeout_s,omitempty"`
}

// decodeRequest decodes an HTTP request body into dst, rejecting unknown
// fields at the top level (nested config objects are re-decoded strictly by
// DecodeConfig, which also applies presets).
func decodeRequest(r []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(r))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
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
	Shard      int           `json:"shard"`
	Created    string        `json:"created"`
	Started    string        `json:"started,omitempty"`
	Finished   string        `json:"finished,omitempty"`
	Progress   ProgressDTO   `json:"progress"`
	CacheStats CacheStatsDTO `json:"cache_stats"`
	Error      string        `json:"error,omitempty"`
}
