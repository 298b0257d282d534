// Package scalesim is the public API of the SCALE-Sim v3 reproduction: a
// modular, cycle-accurate simulator for systolic-array accelerators with
// multi-core partitioning, structured sparsity, a cycle-accurate DRAM
// model, on-chip data-layout (bank conflict) analysis and Accelergy-style
// energy and power estimation.
//
// Quickstart:
//
//	cfg := scalesim.DefaultConfig()
//	cfg.Energy.Enabled = true
//	topo, _ := scalesim.BuiltinTopology("resnet18")
//	res, err := scalesim.New(cfg).Run(context.Background(), topo)
//	if err != nil { ... }
//	fmt.Println(res.Summary())
//	err = res.Reports().WriteAll("out") // COMPUTE_REPORT.csv, ...
//
// Run simulates the topology's layers on a bounded worker pool (layers are
// independent); results are deterministic and identical at any parallelism.
// Behavior is tuned with functional options:
//
//	res, err := sim.Run(ctx, topo,
//		scalesim.WithParallelism(4),
//		scalesim.WithProgress(func(p scalesim.LayerProgress) {
//			log.Printf("%d/%d %s", p.Done, p.Total, p.Layer)
//		}))
//
// To fan one topology across many configuration variants — array sizes,
// dataflows, sparsity ratios, memory technologies — use the sweep engine:
//
//	pts := []scalesim.SweepPoint{
//		{Name: "32x32", Config: cfg32, Topology: topo},
//		{Name: "64x64", Config: cfg64, Topology: topo},
//	}
//	results, err := scalesim.Sweep(ctx, pts)
//
// The per-layer model passes (compute, layout, memory, energy) are
// pluggable stages; WithStages replaces the pipeline, e.g. to append a
// custom pass to DefaultStages or substitute one for a built-in pass.
// Every stage names its behaviour with a CacheFingerprint, so a run
// simulates each distinct layer shape once, cache or no cache.
//
// Runs and sweeps can share a content-addressed layer-result cache:
//
//	cache := scalesim.NewCache(0, 0) // default bounds
//	res, err := sim.Run(ctx, topo, scalesim.WithCache(cache))
//	results, err := scalesim.Sweep(ctx, pts, scalesim.WithCache(cache))
//
// Layers whose (configuration, stage pipeline, shape) fingerprint was
// simulated before — repeated blocks of a ResNet-style topology, or the
// unchanged layers of a sweep — are served from the cache as deep copies;
// cached and uncached runs produce byte-identical reports. SharedCache
// returns a process-wide cache, Cache.AttachStore adds a persistent disk
// tier, and Result.CacheStats / Cache.Stats expose hit rates and
// occupancy.
//
// Explore automates the what-if loop: declare a parameter Space over
// configuration knobs, one or more Objectives, and a seeded search
// strategy, and receive the exact multi-objective Pareto Frontier —
// candidates are evaluated in Sweep batches behind one cache, and a fixed
// seed yields a byte-identical frontier at any parallelism:
//
//	space, _ := scalesim.ParseSpace("array=16..128:pow2; dataflow=os,ws,is")
//	frontier, err := scalesim.Explore(ctx, cfg, topo, space,
//		scalesim.WithExploreObjectives(scalesim.CyclesObjective(), scalesim.EnergyObjective()),
//		scalesim.WithExploreBudget(64))
//	err = frontier.WriteAll("out") // FRONTIER.csv + FRONTIER.json
//
// For callers that cannot link this package, `scalesim serve` (backed by
// internal/server) exposes Run, Sweep and Explore as an HTTP/JSON job
// service whose jobs all share one process-wide cache; see the README's
// "Serving" section.
package scalesim

import (
	"time"

	"scalesim/internal/config"
	"scalesim/internal/energy"
	"scalesim/internal/multicore"
	"scalesim/internal/report"
	"scalesim/internal/telemetry"
	"scalesim/internal/topology"
)

// Re-exported configuration types so callers need only this package.
type (
	// Config is the full simulator configuration.
	Config = config.Config
	// Dataflow selects the mapping strategy (OS/WS/IS).
	Dataflow = config.Dataflow
	// Topology is a workload: an ordered list of layers.
	Topology = topology.Topology
	// Layer is one convolution or GEMM layer.
	Layer = topology.Layer
	// LayerKind distinguishes convolution layers from raw GEMM layers.
	LayerKind = topology.LayerKind
	// Sparsity is an N:M structured-sparsity annotation.
	Sparsity = topology.Sparsity
	// ERT is an Accelergy-style energy reference table mapping component
	// actions to per-action energies.
	ERT = energy.ERT
)

// Dataflow constants.
const (
	OutputStationary = config.OutputStationary
	WeightStationary = config.WeightStationary
	InputStationary  = config.InputStationary
)

// Layer kinds, for constructing topologies programmatically.
const (
	// Conv is a 2-D convolution layer, described by ifmap/filter geometry.
	Conv = topology.Conv
	// GEMM is a plain matrix-multiplication layer, described by M, N, K.
	GEMM = topology.GEMM
)

// DefaultConfig returns the SCALE-Sim default single-core configuration.
func DefaultConfig() Config { return config.Default() }

// TPUConfig returns the TPU-v2-like configuration used by the paper's
// memory experiments.
func TPUConfig() Config { return config.TPUv2Like() }

// LoadConfig parses a SCALE-Sim .cfg file.
func LoadConfig(path string) (Config, error) { return config.LoadINI(path) }

// DefaultERT returns a fresh, caller-owned copy of the 65 nm energy
// reference table used when no WithERT option is given: modifying it does
// not affect default runs until it is passed to WithERT.
func DefaultERT() *ERT { return energy.Default65nm() }

// BuiltinTopology returns a model from the built-in zoo ("alexnet",
// "resnet18", "resnet50", "rcnn", "vit_small", "vit_base", "vit_large",
// "vit_base_ff").
func BuiltinTopology(name string) (*Topology, error) { return topology.Builtin(name) }

// BuiltinTopologyNames lists the zoo.
func BuiltinTopologyNames() []string { return topology.BuiltinNames() }

// LoadTopology parses a SCALE-Sim topology CSV file.
func LoadTopology(path string) (*Topology, error) { return topology.LoadCSV(path) }

// ParseSparsity parses an "N:M" annotation such as "2:4".
func ParseSparsity(s string) (Sparsity, error) { return topology.ParseSparsity(s) }

// LayerResult is the full per-layer output of a run.
//
// Layer.Name is the one place a result records its layer's name: the
// LayerName fields of the Sparse and Memory rows are left empty, and the
// reports fill them from Layer.Name when they render.
type LayerResult struct {
	Layer topology.Layer
	// GEMM dimensions after lowering.
	M, N, K int

	// ComputeCycles is the stall-free systolic runtime; TotalCycles adds
	// memory stalls when the DRAM model is enabled.
	ComputeCycles int64
	StallCycles   int64
	TotalCycles   int64
	Utilization   float64
	MappingEff    float64

	// Sparse compression results (nil when the layer ran dense).
	Sparse *report.SparseRow

	// Memory model results (zero-valued when disabled).
	Memory report.MemoryRow
	// DRAMReadWords/DRAMWriteWords are main-memory words moved.
	DRAMReadWords  int64
	DRAMWriteWords int64
	ThroughputMBps float64

	// LayoutSlowdown is (layout − bandwidth)/bandwidth (0 when disabled).
	LayoutSlowdown float64

	// Energy report (nil when disabled).
	Energy *energy.Report

	// MultiCore partition used (nil for single-core runs).
	Partition *multicore.Partition
}

// Result is the outcome of simulating a topology.
type Result struct {
	// Config is the configuration the run executed under.
	Config Config
	// Layers holds one result per topology layer, in topology order.
	Layers []LayerResult
	// CacheStats reports layer-cache effectiveness for this run. It is
	// zero unless a cache was attached (WithCache).
	CacheStats RunCacheStats

	// spans and wall hold the telemetry captured when the run traced
	// (WithTrace); Profile aggregates them.
	spans []telemetry.SpanRecord
	wall  time.Duration
}

// Summary aggregates the run: raw cycle/energy totals plus the derived
// scalar metrics (EDP, effective TOPS, DRAM bytes per MAC) that the
// exploration objectives and human reports share.
func (r *Result) Summary() report.Summary {
	var s report.Summary
	var energyPJ float64
	var secs float64
	var utilWeighted float64
	wordBytes := r.Config.WordBytes
	if wordBytes <= 0 {
		wordBytes = 4
	}
	for i := range r.Layers {
		l := &r.Layers[i]
		s.TotalComputeCycles += l.ComputeCycles
		s.TotalStallCycles += l.StallCycles
		s.TotalCycles += l.TotalCycles
		s.TotalMACs += int64(l.M) * int64(l.N) * int64(l.K)
		s.TotalDRAMBytes += (l.DRAMReadWords + l.DRAMWriteWords) * int64(wordBytes)
		utilWeighted += l.Utilization * float64(l.ComputeCycles)
		if l.Energy != nil {
			energyPJ += l.Energy.TotalPJ
			secs += l.Energy.Seconds()
		}
	}
	s.TotalEnergyMJ = energyPJ * 1e-9
	if secs > 0 {
		// mJ per second is exactly mW.
		s.AvgPowerMW = s.TotalEnergyMJ / secs
	}
	if s.TotalComputeCycles > 0 {
		s.AvgUtilization = utilWeighted / float64(s.TotalComputeCycles)
	}
	s.Derive(r.Config.Energy.FrequencyMHz)
	return s
}

// TotalCycles sums layer cycles (with stalls).
func (r *Result) TotalCycles() int64 {
	var t int64
	for i := range r.Layers {
		t += r.Layers[i].TotalCycles
	}
	return t
}

// TotalEnergyMJ sums layer energy (0 when energy modeling was off).
func (r *Result) TotalEnergyMJ() float64 {
	var e float64
	for i := range r.Layers {
		if r.Layers[i].Energy != nil {
			e += r.Layers[i].Energy.TotalMJ()
		}
	}
	return e
}

// EdP returns total cycles × total energy, the paper's Table V metric.
func (r *Result) EdP() float64 { return float64(r.TotalCycles()) * r.TotalEnergyMJ() }

// Simulator runs workloads under one configuration.
type Simulator struct {
	cfg  Config
	opts options
}

// New builds a Simulator. The configuration is validated lazily at Run so
// construction never fails. Options given here are the defaults for every
// Run call; Run-level options override them per call.
func New(cfg Config, opts ...Option) *Simulator {
	s := &Simulator{cfg: cfg, opts: defaultOptions()}
	for _, o := range opts {
		o(&s.opts)
	}
	return s
}
