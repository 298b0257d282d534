// Package report defines the simulator's output reports — the COMPUTE,
// BANDWIDTH, SPARSE, MEMORY and ENERGY reports SCALE-Sim emits as CSV — and
// their writers.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// ComputeRow is one layer of the COMPUTE_REPORT.
type ComputeRow struct {
	LayerName         string
	Dataflow          string
	M, N, K           int
	ComputeCycles     int64
	StallCycles       int64
	TotalCycles       int64
	Utilization       float64
	MappingEfficiency float64
}

// BandwidthRow is one layer of the BANDWIDTH_REPORT.
type BandwidthRow struct {
	LayerName      string
	DRAMReadWords  int64
	DRAMWriteWords int64
	AvgReadBWWords float64 // words per cycle
	AvgWriteBW     float64
	ThroughputMBps float64
}

// MemoryRow is one layer of the MEMORY_REPORT (Ramulator integration).
type MemoryRow struct {
	LayerName      string
	Requests       int64
	RowHits        int64
	RowMisses      int64
	RowConflicts   int64
	AvgReadLatency float64
	QueueFullCyc   int64
	StallCycles    int64
}

// SparseRow is one layer of the SPARSE_REPORT.
type SparseRow struct {
	LayerName             string
	Representation        string
	Ratio                 string
	OriginalFilterWords   int64
	CompressedFilterWords int64
	MetadataWords         int64
}

// EnergyRow is one layer of the ENERGY_REPORT.
type EnergyRow struct {
	LayerName  string
	TotalMJ    float64
	LeakageMJ  float64
	AvgPowerMW float64
	EdP        float64
}

// WriteCompute emits the compute report as CSV.
func WriteCompute(w io.Writer, rows []ComputeRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"LayerName", "Dataflow", "M", "N", "K",
		"ComputeCycles", "StallCycles", "TotalCycles", "Utilization", "MappingEfficiency"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.LayerName, r.Dataflow,
			strconv.Itoa(r.M), strconv.Itoa(r.N), strconv.Itoa(r.K),
			strconv.FormatInt(r.ComputeCycles, 10),
			strconv.FormatInt(r.StallCycles, 10),
			strconv.FormatInt(r.TotalCycles, 10),
			fmtF(r.Utilization), fmtF(r.MappingEfficiency)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteBandwidth emits the bandwidth report as CSV.
func WriteBandwidth(w io.Writer, rows []BandwidthRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"LayerName", "DRAMReadWords", "DRAMWriteWords",
		"AvgReadBWWordsPerCycle", "AvgWriteBWWordsPerCycle", "ThroughputMBps"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.LayerName,
			strconv.FormatInt(r.DRAMReadWords, 10),
			strconv.FormatInt(r.DRAMWriteWords, 10),
			fmtF(r.AvgReadBWWords), fmtF(r.AvgWriteBW), fmtF(r.ThroughputMBps)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMemory emits the memory report as CSV.
func WriteMemory(w io.Writer, rows []MemoryRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"LayerName", "Requests", "RowHits", "RowMisses",
		"RowConflicts", "AvgReadLatency", "QueueFullCycles", "StallCycles"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.LayerName,
			strconv.FormatInt(r.Requests, 10),
			strconv.FormatInt(r.RowHits, 10),
			strconv.FormatInt(r.RowMisses, 10),
			strconv.FormatInt(r.RowConflicts, 10),
			fmtF(r.AvgReadLatency),
			strconv.FormatInt(r.QueueFullCyc, 10),
			strconv.FormatInt(r.StallCycles, 10)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSparse emits the sparse report as CSV.
func WriteSparse(w io.Writer, rows []SparseRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"LayerName", "SparsityRepresentation", "Ratio",
		"OriginalFilterStorage", "NewFilterStorage", "Metadata"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.LayerName, r.Representation, r.Ratio,
			strconv.FormatInt(r.OriginalFilterWords, 10),
			strconv.FormatInt(r.CompressedFilterWords, 10),
			strconv.FormatInt(r.MetadataWords, 10)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteEnergy emits the energy report as CSV.
func WriteEnergy(w io.Writer, rows []EnergyRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"LayerName", "TotalEnergyMJ", "LeakageMJ",
		"AvgPowerMW", "EdPCycleMJ"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.LayerName,
			fmtF(r.TotalMJ), fmtF(r.LeakageMJ), fmtF(r.AvgPowerMW), fmtF(r.EdP)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FrontierRow is one non-dominated design point of a FRONTIER report: the
// point label, its per-axis settings, its objective values (in the
// axis/objective order of the enclosing frontier) and the fidelity its
// objectives were measured at.
type FrontierRow struct {
	Name       string
	AxisValues []string
	Objectives []float64
	// Fidelity names the simulation tier that produced the objective
	// values ("analytical" or "event").
	Fidelity string
}

// WriteFrontier emits a Pareto frontier as CSV: a Point column, one column
// per space axis, one per objective, and a trailing fidelity column. Axis
// and objective names become the header; every row must carry matching
// slice lengths.
func WriteFrontier(w io.Writer, axisNames, objectiveNames []string, rows []FrontierRow) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, 2+len(axisNames)+len(objectiveNames))
	header = append(header, "Point")
	header = append(header, axisNames...)
	header = append(header, objectiveNames...)
	header = append(header, "fidelity")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if len(r.AxisValues) != len(axisNames) || len(r.Objectives) != len(objectiveNames) {
			return fmt.Errorf("report: frontier row %q has %d axis values and %d objectives, want %d and %d",
				r.Name, len(r.AxisValues), len(r.Objectives), len(axisNames), len(objectiveNames))
		}
		rec := make([]string, 0, len(header))
		rec = append(rec, r.Name)
		rec = append(rec, r.AxisValues...)
		for _, v := range r.Objectives {
			rec = append(rec, fmtF(v))
		}
		rec = append(rec, r.Fidelity)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// fmtF renders v with six decimals, byte-identical to
// strconv.FormatFloat(v, 'f', 6, 64), which always takes strconv's
// arbitrary-precision path. Fast path: when |v| < 2^53/1e6 and |v|·1e6
// lies less than 0.4999 from the integer r (measured by a single-rounding
// FMA), r is the correctly rounded count of millionths and cannot be a
// tie, so its digits are printed directly. Near-ties, NaN, ±Inf and huge
// values keep strconv.
func fmtF(v float64) string {
	a := math.Abs(v)
	if a < (1<<53)/1e6 {
		r := math.Round(a * 1e6)
		if math.Abs(math.FMA(a, 1e6, -r)) < 0.4999 {
			var buf [32]byte
			b := buf[:0]
			if math.Signbit(v) {
				b = append(b, '-')
			}
			micros := uint64(r)
			b = append(strconv.AppendUint(b, micros/1e6, 10), ".000000"...)
			for i, f := len(b)-1, micros%1e6; f > 0; i, f = i-1, f/10 {
				b[i] = byte('0' + f%10)
			}
			return string(b)
		}
	}
	return strconv.FormatFloat(v, 'f', 6, 64)
}

// Summary aggregates layer rows into run totals. The first block is
// accumulated directly from layer results; the derived block is filled by
// Derive so that human-facing reports and machine objectives (the
// design-space explorer) share one definition of each metric.
type Summary struct {
	TotalComputeCycles int64
	TotalStallCycles   int64
	TotalCycles        int64
	TotalEnergyMJ      float64
	AvgPowerMW         float64
	// TotalMACs counts the dense multiply-accumulates of the workload
	// (Σ M·N·K over layers); sparse runs skip some of them at runtime but
	// the workload-defined count is what TOPS is quoted against.
	TotalMACs int64
	// TotalDRAMBytes is main-memory traffic in bytes (read + write).
	TotalDRAMBytes int64
	// AvgUtilization is the compute-cycle-weighted mean PE utilization.
	AvgUtilization float64

	// Derived scalars, filled by Derive.

	// EDP is the energy-delay product in cycle·mJ (the paper's Table V
	// metric), 0 when energy modeling was off.
	EDP float64
	// EffectiveTOPS is achieved tera-operations per second, counting one
	// MAC as two ops, at the configured clock; 0 when the frequency or
	// runtime is unknown.
	EffectiveTOPS float64
	// DRAMBytesPerMAC is main-memory traffic per dense MAC — the
	// arithmetic-intensity inverse that flags memory-bound designs.
	DRAMBytesPerMAC float64
}

// Derive fills the derived metrics (EDP, EffectiveTOPS, DRAMBytesPerMAC)
// from the accumulated totals. freqMHz is the accelerator clock used to
// convert cycles to time; non-positive leaves EffectiveTOPS at 0.
func (s *Summary) Derive(freqMHz float64) {
	s.EDP = float64(s.TotalCycles) * s.TotalEnergyMJ
	s.EffectiveTOPS = 0
	if freqMHz > 0 && s.TotalCycles > 0 {
		secs := float64(s.TotalCycles) / (freqMHz * 1e6)
		s.EffectiveTOPS = 2 * float64(s.TotalMACs) / secs * 1e-12
	}
	s.DRAMBytesPerMAC = 0
	if s.TotalMACs > 0 {
		s.DRAMBytesPerMAC = float64(s.TotalDRAMBytes) / float64(s.TotalMACs)
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("cycles=%d (stalls=%d) energy=%.4f mJ power=%.2f mW",
		s.TotalCycles, s.TotalStallCycles, s.TotalEnergyMJ, s.AvgPowerMW)
}
