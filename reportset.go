package scalesim

import (
	"io"
	"os"
	"path/filepath"

	"scalesim/internal/report"
)

// Canonical report file names, as SCALE-Sim emits them.
const (
	ComputeReportFile   = "COMPUTE_REPORT.csv"
	BandwidthReportFile = "BANDWIDTH_REPORT.csv"
	MemoryReportFile    = "MEMORY_REPORT.csv"
	SparseReportFile    = "SPARSE_REPORT.csv"
	EnergyReportFile    = "ENERGY_REPORT.csv"
)

// Report is one CSV report of a run. It implements io.WriterTo.
type Report struct {
	name  string
	write func(io.Writer) error
}

// Filename is the report's canonical file name, e.g. "COMPUTE_REPORT.csv".
func (r *Report) Filename() string { return r.name }

// WriteTo renders the report as CSV.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	err := r.write(cw)
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReportSet holds the standard CSV reports of a Result. Reports whose
// model did not run are nil.
type ReportSet struct {
	Compute   *Report
	Bandwidth *Report
	Memory    *Report // nil when the memory model was disabled
	Sparse    *Report // nil when no layer ran sparse
	Energy    *Report // nil when energy modeling was disabled
}

// All returns the non-nil reports in canonical order.
func (rs *ReportSet) All() []*Report {
	var out []*Report
	for _, r := range []*Report{rs.Compute, rs.Bandwidth, rs.Memory, rs.Sparse, rs.Energy} {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// WriteAll creates dir (if needed) and writes every non-nil report to its
// canonical file name within it.
func (rs *ReportSet) WriteAll(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range rs.All() {
		f, err := os.Create(filepath.Join(dir, r.Filename()))
		if err != nil {
			return err
		}
		_, werr := r.WriteTo(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// Reports assembles the run's CSV reports. Compute and bandwidth are
// always present; memory, sparse and energy reports exist only when the
// corresponding model produced rows.
func (r *Result) Reports() *ReportSet {
	crows, brows, mrows, srows, erows := r.reportRows()
	rs := &ReportSet{
		Compute: &Report{name: ComputeReportFile, write: func(w io.Writer) error {
			return report.WriteCompute(w, crows)
		}},
		Bandwidth: &Report{name: BandwidthReportFile, write: func(w io.Writer) error {
			return report.WriteBandwidth(w, brows)
		}},
	}
	if len(mrows) > 0 {
		rs.Memory = &Report{name: MemoryReportFile, write: func(w io.Writer) error {
			return report.WriteMemory(w, mrows)
		}}
	}
	if len(srows) > 0 {
		rs.Sparse = &Report{name: SparseReportFile, write: func(w io.Writer) error {
			return report.WriteSparse(w, srows)
		}}
	}
	if len(erows) > 0 {
		rs.Energy = &Report{name: EnergyReportFile, write: func(w io.Writer) error {
			return report.WriteEnergy(w, erows)
		}}
	}
	return rs
}

// reportRows flattens the per-layer results into report rows, each named
// after its Layer. Layers whose memory model did not run contribute no
// memory row: LayerResult.Memory is zero-valued exactly then.
func (r *Result) reportRows() ([]report.ComputeRow, []report.BandwidthRow,
	[]report.MemoryRow, []report.SparseRow, []report.EnergyRow) {
	var crows []report.ComputeRow
	var brows []report.BandwidthRow
	var mrows []report.MemoryRow
	var srows []report.SparseRow
	var erows []report.EnergyRow
	for i := range r.Layers {
		l := &r.Layers[i]
		crows = append(crows, report.ComputeRow{
			LayerName: l.Layer.Name, Dataflow: r.Config.Dataflow.String(),
			M: l.M, N: l.N, K: l.K,
			ComputeCycles: l.ComputeCycles, StallCycles: l.StallCycles,
			TotalCycles: l.TotalCycles, Utilization: l.Utilization,
			MappingEfficiency: l.MappingEff,
		})
		var rbw, wbw float64
		if l.TotalCycles > 0 {
			rbw = float64(l.DRAMReadWords) / float64(l.TotalCycles)
			wbw = float64(l.DRAMWriteWords) / float64(l.TotalCycles)
		}
		brows = append(brows, report.BandwidthRow{
			LayerName: l.Layer.Name, DRAMReadWords: l.DRAMReadWords,
			DRAMWriteWords: l.DRAMWriteWords, AvgReadBWWords: rbw,
			AvgWriteBW: wbw, ThroughputMBps: l.ThroughputMBps,
		})
		if l.Memory != (report.MemoryRow{}) {
			row := l.Memory
			row.LayerName = l.Layer.Name
			mrows = append(mrows, row)
		}
		if l.Sparse != nil {
			row := *l.Sparse
			row.LayerName = l.Layer.Name
			srows = append(srows, row)
		}
		if l.Energy != nil {
			erows = append(erows, report.EnergyRow{
				LayerName:  l.Layer.Name,
				TotalMJ:    l.Energy.TotalMJ(),
				LeakageMJ:  l.Energy.LeakagePJ * 1e-9,
				AvgPowerMW: l.Energy.AvgPowerMW(),
				EdP:        l.Energy.EdP(),
			})
		}
	}
	return crows, brows, mrows, srows, erows
}
