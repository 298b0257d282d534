package scalesim

import (
	"context"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/energy"
	"scalesim/internal/layout"
	"scalesim/internal/multicore"
	"scalesim/internal/report"
	"scalesim/internal/simcache"
	"scalesim/internal/sparse"
	"scalesim/internal/sram"
	"scalesim/internal/systolic"
	"scalesim/internal/telemetry"
)

// StageContext carries the per-layer state shared by the pipeline stages.
// Earlier stages communicate with later ones through it: the compute stage
// fixes the effective Dataflow (sparse runs force weight-stationary) and
// the filter density the memory and energy stages consume.
type StageContext struct {
	// Config is the run configuration (read-only; shared across layers).
	Config *Config
	// ERT is the energy reference table (read-only; shared across layers
	// and, unless WithERT replaced it, with every other Simulator in the
	// process — a stage must never write to it).
	ERT *ERT
	// Layer is the layer being simulated.
	Layer *Layer
	// Fidelity is the simulation tier requested by WithFidelity
	// (EventDriven unless overridden). Stages that model time choose
	// their engine by it; fidelity-blind custom stages may ignore it —
	// the tier is part of the cache fingerprint regardless.
	Fidelity Fidelity
	// Dataflow is the effective dataflow for this layer. It starts as
	// Config.Dataflow; the compute stage may override it.
	Dataflow Dataflow
	// Rows, Cols are the systolic array dimensions.
	Rows, Cols int
	// M, N, K are the layer's GEMM dimensions after lowering.
	M, N, K int
	// FilterRatio is the filter density in (0, 1]; 1 for dense layers.
	// Set by the compute stage.
	FilterRatio float64
	// Span is the stage's telemetry span — nil (a safe no-op) unless the
	// run traced (WithTrace). Stages may attach attributes and open child
	// "phase" spans for their internal steps.
	Span *telemetry.Span

	// pattern is the sparse compression pattern, nil for dense layers.
	pattern *sparse.Pattern
	// cache holds sub-result memoization (e.g. the layout analysis) when a
	// simulation cache is attached to the run; nil otherwise.
	cache *simcache.Cache
	// dramSink, when set, receives every DRAM transaction of the memory
	// stage's event-driven replay, in trace order (see sram.Options.Sink).
	dramSink func(dram.Request)
}

// Stage is one pass of the per-layer model pipeline. Built-in stages cover
// compute, data layout, main memory and energy; custom stages can extend
// or replace them via WithStages. A stage sees the LayerResult as left by
// the stages before it and must be safe for concurrent use across layers.
type Stage interface {
	// Name identifies the stage in error messages.
	Name() string
	// Apply runs the pass for one layer, mutating lr (and, for
	// cross-stage state, sc).
	Apply(ctx context.Context, sc *StageContext, lr *LayerResult) error
	StageFingerprinter
}

// StageFingerprinter is the part of the Stage contract that names a
// stage's behaviour for grouping and caching; Stage embeds it, and it
// keeps its own name for callers that assert to it. Apply must be a
// deterministic function of the Config, the ERT, the Fidelity, the layer's
// shape (not its Name) and the state earlier stages left in the
// StageContext and LayerResult: Run simulates each distinct shape once
// and copies the result to the repeats, and WithCache serves a shape from
// an earlier run. CacheFingerprint must change whenever that function
// does: two pipelines whose stages return equal fingerprints must produce
// identical LayerResults for identical inputs. Encode any
// behaviour-affecting stage parameters into the returned string. The
// built-in stages return version-tagged constants.
type StageFingerprinter interface {
	CacheFingerprint() string
}

// DefaultStages returns the standard pipeline: compute, layout slowdown,
// main memory, energy — each a no-op unless enabled in the configuration
// (compute always runs).
func DefaultStages() []Stage {
	return []Stage{computeStage{}, layoutStage{}, memoryStage{}, energyStage{}}
}

// computeStage is the systolic compute pass: dense, sparse or multi-core
// cycle estimation. It always runs and must come first — it seeds
// ComputeCycles, Utilization and the effective dataflow.
type computeStage struct{}

func (computeStage) Name() string { return "compute" }

// CacheFingerprint names the pass: its output is a pure
// function of (Config, Layer).
func (computeStage) CacheFingerprint() string { return "compute/v1" }

// FidelityLadder declares the compute pass purely analytical: the closed
// forms (systolic.Estimate, the sparse estimator, the multi-core search)
// are exact, so every requested tier lowers to the same arithmetic.
func (computeStage) FidelityLadder() []Fidelity { return []Fidelity{Analytical} }

func (computeStage) Apply(_ context.Context, sc *StageContext, lr *LayerResult) error {
	cfg := sc.Config
	l := sc.Layer
	r, c := sc.Rows, sc.Cols
	m, n, k := sc.M, sc.N, sc.K

	switch {
	case cfg.Sparsity.Enabled && (!l.Sparsity.Dense() || cfg.Sparsity.OptimizedMapping):
		// The paper fixes the weight-stationary dataflow for sparse runs.
		sc.Dataflow = config.WeightStationary
		sc.Span.SetAttr("path", "sparse")
		est, p, err := sparse.EstimateLayer(r, c, l, &cfg.Sparsity)
		if err != nil {
			return err
		}
		sc.pattern = p
		sc.FilterRatio = p.Density()
		lr.ComputeCycles = est.ComputeCycles
		lr.Utilization = est.Utilization
		lr.MappingEff = est.MappingEfficiency
		sr, err := sparse.NewReport(l.Sparsity.String(), p, cfg.Sparsity.Format, cfg.WordBytes*8)
		if err != nil {
			return err
		}
		row := report.SparseRow{
			Representation:        cfg.Sparsity.Format.String(),
			Ratio:                 sr.Ratio,
			OriginalFilterWords:   sr.OriginalFilterWords,
			CompressedFilterWords: sr.CompressedFilterWords,
			MetadataWords:         sr.MetadataWords,
		}
		lr.Sparse = &row
	case cfg.MultiCore.Enabled:
		sc.Span.SetAttr("path", "multicore")
		mp := systolic.MappingFor(sc.Dataflow, m, n, k)
		part, cycles, err := multiCoreCycles(cfg, mp)
		if err != nil {
			return err
		}
		lr.ComputeCycles = cycles
		lr.Partition = part
		macs := int64(m) * int64(n) * int64(k)
		if pes := cfg.PEs(); cycles > 0 && pes > 0 {
			lr.Utilization = float64(macs) / (float64(pes) * float64(cycles))
		}
		lr.MappingEff = lr.Utilization
	default:
		sc.Span.SetAttr("path", "dense")
		est := systolic.Estimate(sc.Dataflow, r, c, m, n, k)
		lr.ComputeCycles = est.ComputeCycles
		lr.Utilization = est.Utilization
		lr.MappingEff = est.MappingEfficiency
	}
	sc.Span.SetAttr("dataflow", sc.Dataflow.String())
	sc.Span.SetAttr("compute_cycles", lr.ComputeCycles)
	lr.TotalCycles = lr.ComputeCycles
	return nil
}

// multiCoreCycles evaluates the configured (or searched) partition.
func multiCoreCycles(cfg *Config, mp systolic.Mapping) (*multicore.Partition, int64, error) {
	mc := &cfg.MultiCore
	r, c := cfg.ArrayRows, cfg.ArrayCols
	if len(mc.Cores) > 0 {
		// Heterogeneous cores: split the Sc dimension by throughput.
		res, err := multicore.SimulateHetero(mc.Cores, mp,
			multicore.HeteroOptions{HopLatency: mc.HopLatency, NonUniform: mc.NonUniform})
		if err != nil {
			return nil, 0, err
		}
		return nil, res.Cycles, nil
	}
	pr, pc := mc.PartitionRows, mc.PartitionCols
	if pr > 0 && pc > 0 {
		p := multicore.Partition{Pr: pr, Pc: pc, Strategy: mc.Strategy}
		return &p, multicore.Runtime(p, r, c, mp), nil
	}
	cores := cfg.NumCores()
	ch, err := multicore.Search(mc.Strategy, cores, r, c, mp, multicore.MinCycles)
	if err != nil {
		return nil, 0, err
	}
	return &ch.Partition, ch.Cycles, nil
}

// layoutStage is the on-chip data-layout (bank conflict) pass. No-op
// unless Config.Layout.Enabled.
type layoutStage struct{}

func (layoutStage) Name() string { return "layout" }

// CacheFingerprint names the pass: its output is a pure
// function of (Config.Layout, dataflow, array shape, GEMM dims).
func (layoutStage) CacheFingerprint() string { return "layout/v1" }

// FidelityLadder: the closed-form conflict analysis is proven identical to
// the per-cycle replay (a test-only oracle), so the stage has one tier and
// Analytical lowers to EventDriven.
func (layoutStage) FidelityLadder() []Fidelity { return []Fidelity{EventDriven} }

// Apply streams the layer's demand through the bank-conflict analyzer for
// each operand SRAM and converts the aggregate slowdown into stall cycles.
//
// The slowdown depends only on the layout section, the effective dataflow,
// the array shape and the GEMM dims — not on the memory or energy knobs —
// so it is memoized under its own narrower cache key. A sweep that varies
// only DRAM or energy parameters replays the demand analysis once per
// distinct layer shape instead of once per (point, layer).
func (layoutStage) Apply(_ context.Context, sc *StageContext, lr *LayerResult) error {
	cfg := sc.Config
	if !cfg.Layout.Enabled {
		return nil
	}
	var key simcache.Key
	if sc.cache != nil {
		h := simcache.NewHasher()
		h.String("scalesim/layout/v1")
		h.Value(cfg.Layout)
		for _, v := range []int{int(sc.Dataflow), sc.Rows, sc.Cols, sc.M, sc.N, sc.K} {
			h.Int(int64(v))
		}
		key = h.Sum()
		if v, ok := sc.cache.Get(key); ok {
			sc.Span.SetAttr("memo", "hit")
			applyLayoutSlowdown(lr, v.(float64))
			return nil
		}
		sc.Span.SetAttr("memo", "miss")
	}
	slow, err := layoutSlowdown(sc)
	if err != nil {
		return err
	}
	if sc.cache != nil {
		sc.cache.Put(key, slow, 64)
	}
	applyLayoutSlowdown(lr, slow)
	return nil
}

// applyLayoutSlowdown converts the relative slowdown into stall cycles on
// top of the layer's compute cycles.
func applyLayoutSlowdown(lr *LayerResult, slow float64) {
	lr.LayoutSlowdown = slow
	if slow > 0 {
		extra := int64(float64(lr.ComputeCycles) * slow)
		lr.StallCycles += extra
		lr.TotalCycles += extra
	}
}

// layoutSlowdown runs the bank-conflict analysis and returns the relative
// slowdown of the layer's demand stream versus the pure-bandwidth model.
//
// Every layer takes the closed form: the fold schedule's access-pattern
// summaries feed AnalyzeSchedule in O(folds) work, proven byte-identical to
// the per-cycle replay by the differential tests. A sparse layer is
// analysed on the dense operand stream of its (weight-stationary) GEMM —
// the compressed stream is not modelled here.
func layoutSlowdown(sc *StageContext) (float64, error) {
	cfg := sc.Config
	lc := layout.Config{
		Banks:          cfg.Layout.Banks,
		PortsPerBank:   cfg.Layout.PortsPerBank,
		TotalBandwidth: cfg.Layout.OnChipBandwidth,
	}
	ifa, err := layout.NewAnalyzer(lc)
	if err != nil {
		return 0, err
	}
	fla, err := layout.NewAnalyzer(lc)
	if err != nil {
		return 0, err
	}
	ofa, err := layout.NewAnalyzer(lc)
	if err != nil {
		return 0, err
	}
	fs, err := systolic.NewFoldSchedule(sc.Dataflow, sc.Rows, sc.Cols, systolic.Gemm{M: sc.M, N: sc.N, K: sc.K})
	if err != nil {
		return 0, err
	}
	// Operands are stored in their stream-natural order (the layout a
	// layout-aware mapper picks); the remaining slowdown is the bank
	// contention the paper's Figs. 12/13 quantify.
	layout.AnalyzeSchedule(fs, ifa, fla, ofa, true)
	return layout.CombinedSlowdown(ifa, fla, ofa), nil
}

// memoryStage is the main-memory pass. It records the layer's minimum
// DRAM traffic and, when Config.Memory.Enabled, turns it into stall cycles
// at the fidelity selected by WithFidelity.
type memoryStage struct{}

func (memoryStage) Name() string { return "memory" }

// CacheFingerprint names the pass: its output is a pure
// function of (Config, Layer) and the state left by the compute stage.
func (memoryStage) CacheFingerprint() string { return "memory/v1" }

// FidelityLadder: the memory pass distinguishes both tiers — closed-form
// traffic/stall bounds (sram.EstimateGemm over the fold walk) and the
// event-driven SRAM/DRAM replay.
func (memoryStage) FidelityLadder() []Fidelity { return []Fidelity{Analytical, EventDriven} }

// Apply records the layer's minimum DRAM traffic and, when the memory
// model is enabled, runs the memory workflow for the layer at the
// requested fidelity: closed-form traffic/stall bounds at Analytical, the
// event-driven replay at EventDriven (the default).
func (memoryStage) Apply(_ context.Context, sc *StageContext, lr *LayerResult) error {
	cfg := sc.Config
	lr.DRAMReadWords, lr.DRAMWriteWords = systolic.MinDRAMTraffic(sc.Layer)
	if !cfg.Memory.Enabled {
		return nil
	}
	tech, err := dram.TechByName(cfg.Memory.Technology)
	if err != nil {
		return err
	}
	g := systolic.Gemm{M: sc.M, N: sc.N, K: sc.K}
	ifW, flW, ofW := cfg.SRAMWords()
	sopts := sram.ScheduleOptions{IfmapSRAMWords: ifW, FilterSRAMWords: flW, OfmapSRAMWords: ofW,
		FilterRatio: sc.FilterRatio}
	dopts := dram.Options{
		Channels: cfg.Memory.Channels,
		// One controller queue holds reads and writes: the tighter of the
		// two configured depths bounds it.
		QueueDepth: min(cfg.Memory.ReadQueueDepth, cfg.Memory.WriteQueueDepth),
	}
	ropts := sram.Options{
		WordBytes:           cfg.WordBytes,
		MaxRequestsPerCycle: max(1, cfg.BandwidthWords*cfg.WordBytes/64),
		StreamWindowWords:   ifW / 2,
		Sink:                sc.dramSink,
	}
	if sc.Fidelity == Analytical {
		// Closed form: exact traffic, bounded stalls, no replay — the folds
		// are walked and summed, no schedule is built. The
		// controller-detail columns of the memory row (row hits, queue
		// pressure, latency) have no analytical meaning and stay zero.
		sc.Span.SetAttr("engine", "analytical")
		mres, err := sram.EstimateGemm(sc.Dataflow, sc.Rows, sc.Cols, g, sopts,
			tech, dopts.Channels, ropts)
		if err != nil {
			return err
		}
		sc.Span.SetAttr("stall_cycles", mres.StallCycles)
		lr.StallCycles += mres.StallCycles
		lr.TotalCycles = lr.ComputeCycles + lr.StallCycles
		lr.DRAMReadWords = mres.ReadWords
		lr.DRAMWriteWords = mres.WriteWords
		lr.ThroughputMBps = mres.ThroughputMBps
		lr.Memory = report.MemoryRow{
			Requests:    mres.ReadRequests + mres.WriteRequests,
			StallCycles: mres.StallCycles,
		}
		return nil
	}
	build := sc.Span.Child("schedule.build", "phase")
	sched, err := sram.BuildSchedule(sc.Dataflow, sc.Rows, sc.Cols, g, sopts)
	build.End()
	if err != nil {
		return err
	}
	sc.Span.SetAttr("folds", len(sched.Folds))
	dopts.Trace, ropts.Trace = sc.Span, sc.Span
	sys, err := dram.New(tech, dopts)
	if err != nil {
		return err
	}
	mres, err := sram.Simulate(sched, sys, ropts)
	if err != nil {
		return err
	}
	sc.Span.SetAttr("skipped_cycles", mres.SkippedCycles)
	sc.Span.SetAttr("stall_cycles", mres.StallCycles)
	// Memory stalls replace the closed-form total for this layer.
	lr.StallCycles += mres.StallCycles
	lr.TotalCycles = lr.ComputeCycles + lr.StallCycles
	lr.DRAMReadWords = mres.ReadWords
	lr.DRAMWriteWords = mres.WriteWords
	lr.ThroughputMBps = mres.ThroughputMBps
	lr.Memory = report.MemoryRow{
		Requests:       mres.ReadRequests + mres.WriteRequests,
		RowHits:        mres.DRAM.RowHits,
		RowMisses:      mres.DRAM.RowMisses,
		RowConflicts:   mres.DRAM.RowConflicts,
		AvgReadLatency: mres.DRAM.AvgReadLatency(),
		QueueFullCyc:   mres.QueueFullCyc,
		StallCycles:    mres.StallCycles,
	}
	return nil
}

// energyStage is the Accelergy-style energy/power pass. No-op unless
// Config.Energy.Enabled.
type energyStage struct{}

func (energyStage) Name() string { return "energy" }

// CacheFingerprint names the pass: its output is a pure
// function of (Config, ERT, Layer) and the state left by earlier stages.
func (energyStage) CacheFingerprint() string { return "energy/v1" }

// FidelityLadder declares the energy pass purely analytical: action counts
// and the ERT lookup are closed forms at every tier.
func (energyStage) FidelityLadder() []Fidelity { return []Fidelity{Analytical} }

// Apply runs the Accelergy-style flow for one layer.
func (energyStage) Apply(_ context.Context, sc *StageContext, lr *LayerResult) error {
	cfg := sc.Config
	if !cfg.Energy.Enabled {
		return nil
	}
	df, r, c, m, n, k := sc.Dataflow, sc.Rows, sc.Cols, sc.M, sc.N, sc.K
	acc := systolic.Access(df, r, c, m, n, k)
	if sc.pattern != nil {
		// Compressed filters shrink filter traffic proportionally.
		acc.Filter.Reads = int64(float64(acc.Filter.Reads) * sc.FilterRatio)
	}
	prof := &energy.RunProfile{
		Dataflow:    df,
		R:           r,
		C:           c,
		M:           m,
		N:           n,
		K:           k,
		Cycles:      lr.TotalCycles,
		Utilization: lr.Utilization,
		Access:      acc,
		DRAMReads:   lr.DRAMReadWords,
		DRAMWrites:  lr.DRAMWriteWords,
	}
	counts := energy.CountActions(prof, &cfg.Energy)
	pes := int64(r) * int64(c)
	if cfg.MultiCore.Enabled {
		pes = cfg.PEs()
	}
	est := energy.Estimator{
		ERT:          sc.ERT,
		PEs:          pes,
		SRAMKB:       int64(cfg.IfmapSRAMKB + cfg.FilterSRAMKB + cfg.OfmapSRAMKB),
		FrequencyMHz: cfg.Energy.FrequencyMHz,
	}
	rep, err := est.Estimate(counts, lr.TotalCycles)
	if err != nil {
		return err
	}
	sc.Span.SetAttr("total_pj", rep.TotalPJ)
	lr.Energy = rep
	return nil
}
