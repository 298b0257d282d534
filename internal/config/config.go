// Package config holds the simulator configuration: the SCALE-Sim v2 knobs
// (array shape, SRAM sizes, dataflow, bandwidth) plus the v3 sections for
// sparsity, main-memory integration, data layout, energy and multi-core
// simulation. Configurations can be built programmatically or parsed from
// SCALE-Sim's INI-style .cfg files. Config's json tags name every knob once:
// any json key of Config is also a .cfg key, an ini tag adds SCALE-Sim's own
// spelling where it differs, and [general], [architecture_presets] and
// [architecture] are one top-level section (see ParseINI).
package config

import (
	"encoding/json"
	"fmt"
	"strings"

	"scalesim/internal/dram"
)

// Dataflow selects how the GEMM is mapped onto the systolic array.
type Dataflow int

const (
	// OutputStationary pins each output element to a PE (Sr=M, Sc=N, T=K).
	OutputStationary Dataflow = iota
	// WeightStationary pins the filter operand (Sr=K, Sc=M, T=N).
	WeightStationary
	// InputStationary pins the input operand (Sr=K, Sc=N, T=M).
	InputStationary
)

func (d Dataflow) String() string {
	switch d {
	case OutputStationary:
		return "os"
	case WeightStationary:
		return "ws"
	case InputStationary:
		return "is"
	default:
		return fmt.Sprintf("Dataflow(%d)", int(d))
	}
}

// ParseDataflow accepts "os", "ws", "is" (case-insensitive) and common
// long-form spellings.
func ParseDataflow(s string) (Dataflow, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "os", "output_stationary", "outputstationary":
		return OutputStationary, nil
	case "ws", "weight_stationary", "weightstationary":
		return WeightStationary, nil
	case "is", "input_stationary", "inputstationary":
		return InputStationary, nil
	}
	return 0, fmt.Errorf("config: Dataflow: unknown dataflow %q (valid: os, ws, is)", s)
}

// The three enums travel as JSON strings — their String() spelling out, any
// spelling their Parse* accepts in — so Config's struct tags are the whole
// wire schema. They implement json.Marshaler and nothing wider: encoding/gob
// honours GobEncoder and BinaryMarshaler (and has reserved TextMarshaler,
// golang.org/issue/6760), and multicore.Partition.Strategy sits inside the
// gob-encoded store payloads as a plain integer.

func (d Dataflow) MarshalJSON() ([]byte, error) { return json.Marshal(d.String()) }

func (d *Dataflow) UnmarshalJSON(b []byte) error {
	return unmarshalEnum(b, "Dataflow", ParseDataflow, d)
}

// unmarshalEnum decodes a JSON string through parse into dst. A JSON null
// leaves dst alone, like any absent field; any other non-string is an error
// naming field.
func unmarshalEnum[T any](b []byte, field string, parse func(string) (T, error), dst *T) error {
	if string(b) == "null" {
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("config: %s: want a JSON string, got %s", field, b)
	}
	v, err := parse(s)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// Dataflows lists all three classic dataflows in a stable order.
func Dataflows() []Dataflow {
	return []Dataflow{OutputStationary, WeightStationary, InputStationary}
}

// SparseFormat selects the compressed representation used for sparse
// filter operands.
type SparseFormat int

const (
	// BlockedELLPACK stores fixed-size blocks of non-zeros plus
	// log2(blockSize)-bit column metadata per element (the paper default).
	BlockedELLPACK SparseFormat = iota
	// CSR is compressed sparse row.
	CSR
	// CSC is compressed sparse column.
	CSC
)

func (f SparseFormat) String() string {
	switch f {
	case BlockedELLPACK:
		return "ellpack_block"
	case CSR:
		return "csr"
	case CSC:
		return "csc"
	default:
		return fmt.Sprintf("SparseFormat(%d)", int(f))
	}
}

// ParseSparseFormat parses a sparse representation name.
func ParseSparseFormat(s string) (SparseFormat, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "ellpack_block", "blocked_ellpack", "ellpack":
		return BlockedELLPACK, nil
	case "csr":
		return CSR, nil
	case "csc":
		return CSC, nil
	}
	return 0, fmt.Errorf("config: SparseRep: unknown sparse format %q (valid: ellpack_block, csr, csc)", s)
}

func (f SparseFormat) MarshalJSON() ([]byte, error) { return json.Marshal(f.String()) }

func (f *SparseFormat) UnmarshalJSON(b []byte) error {
	return unmarshalEnum(b, "SparseRep", ParseSparseFormat, f)
}

// SparsityConfig is the v3 "sparsity" configuration section.
type SparsityConfig struct {
	// Enabled turns sparse simulation on (SparsitySupport knob).
	Enabled bool `json:"enabled" ini:"SparsitySupport"`
	// OptimizedMapping selects row-wise sparsity with per-row randomized
	// N (true) instead of layer-wise uniform sparsity (false).
	OptimizedMapping bool `json:"optimized_mapping"`
	// Format is the compressed representation (SparseRep knob).
	Format SparseFormat `json:"format" ini:"SparseRep"`
	// BlockSize is M in the N:M ratio for row-wise sparsity.
	BlockSize int `json:"block_size"`
	// Seed makes randomized row-wise sparsity deterministic.
	Seed int64 `json:"seed"`
}

// DRAMTechnologies lists the canonical DRAM technology preset names the
// memory model understands, in a stable order.
func DRAMTechnologies() []string { return dram.TechNames() }

// ParseDRAMTech normalizes a DRAM technology name ("ddr4", "DDR4-2400",
// "hbm") to its canonical preset name, rejecting names the memory model
// does not know — so Validate catches a bad technology before a
// simulation is attempted (design-space exploration generates
// configurations programmatically and wants early, field-named errors).
// The empty string selects the DDR4 default, mirroring the memory model.
// Name resolution is delegated to internal/dram so the two can never
// drift.
func ParseDRAMTech(s string) (string, error) {
	t, err := dram.TechByName(s)
	if err != nil {
		return "", fmt.Errorf("config: Memory.Technology: unknown DRAM technology %q (valid: %s)",
			s, strings.Join(DRAMTechnologies(), ", "))
	}
	return t.Name, nil
}

// MemoryConfig is the v3 main-memory integration section.
type MemoryConfig struct {
	// Enabled turns the cycle-accurate DRAM model on; when false the
	// interface behaves like v2 (pure bandwidth, zero latency).
	Enabled bool `json:"enabled"`
	// Technology is the DRAM preset name ("DDR4", "HBM2", "LPDDR4", ...).
	Technology string `json:"technology" ini:"dram_tech"`
	// Channels is the number of independent DRAM channels.
	Channels int `json:"channels"`
	// ReadQueueDepth and WriteQueueDepth bound in-flight transactions;
	// a full queue stalls the accelerator.
	ReadQueueDepth  int `json:"read_queue_depth" ini:"read_queue"`
	WriteQueueDepth int `json:"write_queue_depth" ini:"write_queue"`
}

// LayoutConfig is the v3 on-chip data layout section.
type LayoutConfig struct {
	// Enabled turns bank-conflict modeling on.
	Enabled bool `json:"enabled"`
	// Banks is the number of SRAM banks sharing the global bandwidth.
	Banks int `json:"banks" ini:"num_banks"`
	// PortsPerBank is the number of concurrent line accesses per bank.
	PortsPerBank int `json:"ports_per_bank" ini:"num_ports"`
	// OnChipBandwidth is total words deliverable per cycle (the baseline
	// pure-bandwidth model divides demand by this).
	OnChipBandwidth int `json:"on_chip_bandwidth"`
}

// EnergyConfig is the v3 energy/power section.
type EnergyConfig struct {
	// Enabled turns Accelergy-style estimation on.
	Enabled bool `json:"enabled"`
	// ClockGating models unused MACs as gated rather than constant.
	ClockGating bool `json:"clock_gating"`
	// RowSize is the words fetched per SRAM access (repeat-read window).
	RowSize int `json:"row_size"`
	// BankSize is the number of SRAM row buffers usable for reuse.
	BankSize int `json:"bank_size"`
	// FrequencyMHz converts cycles to time for power numbers.
	FrequencyMHz float64 `json:"frequency_mhz"`
	// IncludeDRAM folds main-memory access energy into the totals.
	// Off by default: the Accelergy scope is the accelerator chip (GLB,
	// NoC, PE array); DRAM statistics come from the memory model.
	IncludeDRAM bool `json:"include_dram"`
}

// PartitionStrategy selects how a multi-core workload is split.
type PartitionStrategy int

const (
	// SpatialPartition splits both spatial dims (Eq. 1).
	SpatialPartition PartitionStrategy = iota
	// SpatioTemporal1 splits Sr spatially and T temporally (Eq. 2).
	SpatioTemporal1
	// SpatioTemporal2 splits Sc spatially and T temporally (Eq. 3).
	SpatioTemporal2
)

func (p PartitionStrategy) String() string {
	switch p {
	case SpatialPartition:
		return "spatial"
	case SpatioTemporal1:
		return "spatiotemporal1"
	case SpatioTemporal2:
		return "spatiotemporal2"
	default:
		return fmt.Sprintf("PartitionStrategy(%d)", int(p))
	}
}

// ParsePartitionStrategy parses a partition strategy name.
func ParsePartitionStrategy(s string) (PartitionStrategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "spatial":
		return SpatialPartition, nil
	case "spatiotemporal1", "st1":
		return SpatioTemporal1, nil
	case "spatiotemporal2", "st2":
		return SpatioTemporal2, nil
	}
	return 0, fmt.Errorf("config: MultiCore.Strategy: unknown partition strategy %q (valid: spatial, spatiotemporal1, spatiotemporal2)", s)
}

func (p PartitionStrategy) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

func (p *PartitionStrategy) UnmarshalJSON(b []byte) error {
	return unmarshalEnum(b, "MultiCore.Strategy", ParsePartitionStrategy, p)
}

// CoreSpec describes one tensor core: its systolic array shape and its
// distance from main memory. Heterogeneous multi-core configs list cores
// with differing shapes.
type CoreSpec struct {
	Rows int `json:"rows"` // systolic array rows
	Cols int `json:"cols"` // systolic array columns
	// NoPHops is the network-on-package distance from main memory,
	// used for non-uniform workload partitioning.
	NoPHops int `json:"nop_hops,omitempty"`
}

// MultiCoreConfig is the v3 multi-core section.
type MultiCoreConfig struct {
	// Enabled turns multi-core simulation on.
	Enabled bool `json:"enabled"`
	// PartitionRows (Pr) and PartitionCols (Pc) give the partition grid;
	// cores = Pr × Pc. When zero the partition search picks them.
	PartitionRows int `json:"partition_rows" ini:"pr"`
	PartitionCols int `json:"partition_cols" ini:"pc"`
	// Strategy selects spatial vs spatio-temporal partitioning.
	Strategy PartitionStrategy `json:"strategy"`
	// Cores describes each tensor core. Homogeneous configs may leave it
	// empty and inherit the top-level array shape.
	Cores []CoreSpec `json:"cores,omitempty"`
	// NonUniform enables NoP-latency-driven non-uniform partitioning.
	NonUniform bool `json:"non_uniform"`
	// HopLatency is cycles per NoP hop for non-uniform partitioning.
	HopLatency int `json:"hop_latency"`
}

// Config is the complete simulator configuration. The json tags on it and
// its sections are the job server's request schema (see server.DecodeConfig)
// and the .cfg key table (see ParseINI); a new field needs one.
type Config struct {
	// RunName labels reports and trace files.
	RunName string `json:"run_name,omitempty"`

	// ArrayRows and ArrayCols are the systolic array dimensions (R, C).
	ArrayRows int `json:"array_rows" ini:"ArrayHeight"`
	ArrayCols int `json:"array_cols" ini:"ArrayWidth"`

	// IfmapSRAMKB, FilterSRAMKB and OfmapSRAMKB are the double-buffered
	// L1 scratchpad sizes in kilobytes.
	IfmapSRAMKB  int `json:"ifmap_sram_kb" ini:"IfmapSramSzkB"`
	FilterSRAMKB int `json:"filter_sram_kb" ini:"FilterSramSzkB"`
	OfmapSRAMKB  int `json:"ofmap_sram_kb" ini:"OfmapSramSzkB"`

	// Dataflow is the mapping strategy.
	Dataflow Dataflow `json:"dataflow"`

	// BandwidthWords is the interface bandwidth in words per cycle used
	// by the v2-style bandwidth model.
	BandwidthWords int `json:"bandwidth_words" ini:"Bandwidth"`

	// WordBytes is the operand word size (default 4).
	WordBytes int `json:"word_bytes"`

	Sparsity  SparsityConfig  `json:"sparsity"`
	Memory    MemoryConfig    `json:"memory"`
	Layout    LayoutConfig    `json:"layout"`
	Energy    EnergyConfig    `json:"energy"`
	MultiCore MultiCoreConfig `json:"multi_core"`
}

// Default returns a small, valid single-core configuration (32×32, 512 kB
// SRAMs, output stationary, 10 words/cycle) mirroring SCALE-Sim defaults.
func Default() Config {
	return Config{
		RunName:        "scale_sim_run",
		ArrayRows:      32,
		ArrayCols:      32,
		IfmapSRAMKB:    512,
		FilterSRAMKB:   512,
		OfmapSRAMKB:    256,
		Dataflow:       OutputStationary,
		BandwidthWords: 10,
		WordBytes:      4,
		Energy: EnergyConfig{
			ClockGating:  true,
			RowSize:      16,
			BankSize:     4,
			FrequencyMHz: 1000,
		},
		Memory: MemoryConfig{
			Technology:      "DDR4",
			Channels:        1,
			ReadQueueDepth:  128,
			WriteQueueDepth: 128,
		},
		Layout: LayoutConfig{
			Banks:           8,
			PortsPerBank:    2,
			OnChipBandwidth: 128,
		},
	}
}

// TPUv2Like returns a Google TPU-v2-ish configuration: a 128×128 MXU with
// large unified buffers — the configuration the paper's memory experiments
// run under.
func TPUv2Like() Config {
	c := Default()
	c.RunName = "tpu_v2_like"
	c.ArrayRows = 128
	c.ArrayCols = 128
	c.IfmapSRAMKB = 12 * 1024
	c.FilterSRAMKB = 12 * 1024
	c.OfmapSRAMKB = 8 * 1024
	c.Dataflow = WeightStationary
	c.BandwidthWords = 64
	c.Memory.ReadQueueDepth = 128
	c.Memory.WriteQueueDepth = 128
	return c
}

// EyerissLike returns an Eyeriss-ish configuration: 12×14 array with
// small scratchpads, used by the energy validation experiments.
func EyerissLike() Config {
	c := Default()
	c.RunName = "eyeriss_like"
	c.ArrayRows = 12
	c.ArrayCols = 14
	c.IfmapSRAMKB = 64
	c.FilterSRAMKB = 64
	c.OfmapSRAMKB = 32
	c.Dataflow = OutputStationary
	c.BandwidthWords = 4
	return c
}

// Preset resolves a preset name as the CLI's -preset flag and the job
// server's "preset" field spell it: "default" (or empty), "tpu" or
// "eyeriss", case-insensitive.
func Preset(name string) (Config, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "default":
		return Default(), nil
	case "tpu":
		return TPUv2Like(), nil
	case "eyeriss":
		return EyerissLike(), nil
	}
	return Config{}, fmt.Errorf("unknown preset %q (valid: default, tpu, eyeriss)", name)
}

// Validate reports a descriptive error for the first invalid field. Every
// error names the offending field and the value it carried, so callers
// that generate configurations programmatically (sweeps, the design-space
// explorer) surface actionable messages instead of re-deriving which knob
// was out of range.
func (c *Config) Validate() error {
	fieldErr := func(field string, format string, args ...any) error {
		return fmt.Errorf("config: %s: %s", field, fmt.Sprintf(format, args...))
	}
	if c.ArrayRows <= 0 {
		return fieldErr("ArrayRows", "must be positive, got %d", c.ArrayRows)
	}
	if c.ArrayCols <= 0 {
		return fieldErr("ArrayCols", "must be positive, got %d", c.ArrayCols)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"IfmapSRAMKB", c.IfmapSRAMKB}, {"FilterSRAMKB", c.FilterSRAMKB}, {"OfmapSRAMKB", c.OfmapSRAMKB}} {
		if f.v < 0 {
			return fieldErr(f.name, "must not be negative, got %d", f.v)
		}
	}
	if c.BandwidthWords <= 0 {
		return fieldErr("BandwidthWords", "must be positive, got %d", c.BandwidthWords)
	}
	if c.WordBytes <= 0 {
		return fieldErr("WordBytes", "must be positive, got %d", c.WordBytes)
	}
	if d := c.Dataflow; d != OutputStationary && d != WeightStationary && d != InputStationary {
		return fieldErr("Dataflow", "unknown dataflow %d (valid: os, ws, is)", int(d))
	}
	if c.Sparsity.Enabled {
		if c.Sparsity.BlockSize < 0 {
			return fieldErr("Sparsity.BlockSize", "must not be negative, got %d", c.Sparsity.BlockSize)
		}
		if c.Sparsity.OptimizedMapping && c.Sparsity.BlockSize == 0 {
			return fieldErr("Sparsity.BlockSize", "row-wise sparsity (OptimizedMapping) needs a positive BlockSize")
		}
	}
	if c.Memory.Enabled {
		if _, err := ParseDRAMTech(c.Memory.Technology); err != nil {
			return err
		}
		if c.Memory.Channels <= 0 {
			return fieldErr("Memory.Channels", "must be positive, got %d", c.Memory.Channels)
		}
		if c.Memory.ReadQueueDepth <= 0 {
			return fieldErr("Memory.ReadQueueDepth", "must be positive, got %d", c.Memory.ReadQueueDepth)
		}
		if c.Memory.WriteQueueDepth <= 0 {
			return fieldErr("Memory.WriteQueueDepth", "must be positive, got %d", c.Memory.WriteQueueDepth)
		}
	}
	if c.Layout.Enabled {
		if c.Layout.Banks <= 0 {
			return fieldErr("Layout.Banks", "must be positive, got %d", c.Layout.Banks)
		}
		if c.Layout.PortsPerBank <= 0 {
			return fieldErr("Layout.PortsPerBank", "must be positive, got %d", c.Layout.PortsPerBank)
		}
		if c.Layout.OnChipBandwidth <= 0 {
			return fieldErr("Layout.OnChipBandwidth", "must be positive, got %d", c.Layout.OnChipBandwidth)
		}
	}
	if c.Energy.Enabled && !(c.Energy.FrequencyMHz > 0) {
		return fieldErr("Energy.FrequencyMHz", "must be positive, got %g", c.Energy.FrequencyMHz)
	}
	if c.MultiCore.Enabled {
		if s := c.MultiCore.Strategy; s != SpatialPartition && s != SpatioTemporal1 && s != SpatioTemporal2 {
			return fieldErr("MultiCore.Strategy", "unknown partition strategy %d (valid: spatial, spatiotemporal1, spatiotemporal2)", int(s))
		}
		if c.MultiCore.HopLatency < 0 {
			return fieldErr("MultiCore.HopLatency", "must not be negative, got %d", c.MultiCore.HopLatency)
		}
		if c.MultiCore.PartitionRows < 0 {
			return fieldErr("MultiCore.PartitionRows", "must not be negative, got %d", c.MultiCore.PartitionRows)
		}
		if c.MultiCore.PartitionCols < 0 {
			return fieldErr("MultiCore.PartitionCols", "must not be negative, got %d", c.MultiCore.PartitionCols)
		}
		for i, core := range c.MultiCore.Cores {
			if core.Rows <= 0 || core.Cols <= 0 {
				return fieldErr(fmt.Sprintf("MultiCore.Cores[%d]", i),
					"non-positive array %dx%d", core.Rows, core.Cols)
			}
			if core.NoPHops < 0 {
				return fieldErr(fmt.Sprintf("MultiCore.Cores[%d].NoPHops", i),
					"must not be negative, got %d", core.NoPHops)
			}
		}
	}
	return nil
}

// NumCores returns the configured core count (1 when multi-core is off).
func (c *Config) NumCores() int {
	if !c.MultiCore.Enabled {
		return 1
	}
	if len(c.MultiCore.Cores) > 0 {
		return len(c.MultiCore.Cores)
	}
	pr, pc := c.MultiCore.PartitionRows, c.MultiCore.PartitionCols
	if pr <= 0 {
		pr = 1
	}
	if pc <= 0 {
		pc = 1
	}
	return pr * pc
}

// PEs returns the total processing-element count: the listed cores'
// Rows×Cols summed, else NumCores copies of the top-level array.
func (c *Config) PEs() int64 {
	if len(c.MultiCore.Cores) > 0 {
		var n int64
		for _, cs := range c.MultiCore.Cores {
			n += int64(cs.Rows) * int64(cs.Cols)
		}
		return n
	}
	return int64(c.NumCores()) * int64(c.ArrayRows) * int64(c.ArrayCols)
}

// SRAMWords returns the capacity in words of the three L1 SRAMs.
func (c *Config) SRAMWords() (ifmap, filter, ofmap int64) {
	w := int64(c.WordBytes)
	if w == 0 {
		w = 4
	}
	return int64(c.IfmapSRAMKB) * 1024 / w,
		int64(c.FilterSRAMKB) * 1024 / w,
		int64(c.OfmapSRAMKB) * 1024 / w
}
