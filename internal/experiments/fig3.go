package experiments

import (
	"io"

	"scalesim/internal/config"
	"scalesim/internal/multicore"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// Fig3Params configures the partitioning trade-off study (paper Fig. 3):
// GEMM workloads from the M/N/K grid on scale-out multi-core systems, with
// Pr×Pc chosen to optimize either compute cycles (3a) or memory footprint
// (3b) for each of the three partitioning strategies.
type Fig3Params struct {
	MNK      []int // grid values for M, N and K
	Arrays   []int // square systolic array sizes
	Cores    []int // scale-out core counts
	Dataflow config.Dataflow
}

// DefaultFig3 reproduces the paper's sweep: M,N,K ∈ {1000, 5000, 10000}
// (27 workloads), arrays {8, 16, 32}, cores {16, 32, 64}.
func DefaultFig3() Fig3Params {
	return Fig3Params{
		MNK:    []int{1000, 5000, 10000},
		Arrays: []int{8, 16, 32},
		Cores:  []int{16, 32, 64},
	}
}

// Fig3Point is one (workload, array, cores, strategy) evaluation.
type Fig3Point struct {
	M, N, K   int
	Array     int
	Cores     int
	Strategy  config.PartitionStrategy
	Pr, Pc    int
	Cycles    int64
	Footprint int64
	// Best marks the winning strategy within its configuration group
	// under the secondary criterion (paper: the least-footprint point in
	// the cycles-optimized plot and vice versa).
	Best bool
}

// Fig3Result holds both panels of Figure 3.
type Fig3Result struct {
	// CyclesOptimized is panel (a): Pr, Pc minimize compute cycles.
	CyclesOptimized []Fig3Point
	// FootprintOptimized is panel (b): Pr, Pc minimize footprint.
	FootprintOptimized []Fig3Point
}

// RunFig3 executes the sweep.
func RunFig3(p Fig3Params) (*Fig3Result, error) {
	topo := topology.GEMMSweep(p.MNK, p.MNK, p.MNK)
	res := &Fig3Result{}
	for _, arr := range p.Arrays {
		for _, cores := range p.Cores {
			for li := range topo.Layers {
				m, n, k := topo.Layers[li].GEMMDims()
				mp := systolic.MappingFor(p.Dataflow, m, n, k)

				cyc, err := groupPoints(cores, arr, mp, m, n, k, multicore.MinCycles)
				if err != nil {
					return nil, err
				}
				markBest(cyc, multicore.MinFootprint)
				res.CyclesOptimized = append(res.CyclesOptimized, cyc...)

				fp, err := groupPoints(cores, arr, mp, m, n, k, multicore.MinFootprint)
				if err != nil {
					return nil, err
				}
				markBest(fp, multicore.MinCycles)
				res.FootprintOptimized = append(res.FootprintOptimized, fp...)
			}
		}
	}
	return res, nil
}

func groupPoints(cores, arr int, mp systolic.Mapping, m, n, k int, obj multicore.Objective) ([]Fig3Point, error) {
	choices, err := multicore.SearchAll(cores, arr, arr, mp, obj)
	if err != nil {
		return nil, err
	}
	pts := make([]Fig3Point, 0, 3)
	for _, ch := range choices {
		pts = append(pts, Fig3Point{
			M: m, N: n, K: k, Array: arr, Cores: cores,
			Strategy: ch.Partition.Strategy,
			Pr:       ch.Partition.Pr, Pc: ch.Partition.Pc,
			Cycles: ch.Cycles, Footprint: ch.Footprint,
		})
	}
	return pts, nil
}

// markBest flags the point within the group that wins the secondary
// objective (the paper's "Best Partition" markers).
func markBest(pts []Fig3Point, secondary multicore.Objective) {
	if len(pts) == 0 {
		return
	}
	best := 0
	for i := 1; i < len(pts); i++ {
		switch secondary {
		case multicore.MinFootprint:
			if pts[i].Footprint < pts[best].Footprint ||
				(pts[i].Footprint == pts[best].Footprint && pts[i].Cycles < pts[best].Cycles) {
				best = i
			}
		default:
			if pts[i].Cycles < pts[best].Cycles ||
				(pts[i].Cycles == pts[best].Cycles && pts[i].Footprint < pts[best].Footprint) {
				best = i
			}
		}
	}
	pts[best].Best = true
}

// SpatioTemporalWins counts configuration groups in panel (a) where a
// spatio-temporal strategy beats spatial on cycles — the paper's headline
// observation for Fig. 3a.
func (r *Fig3Result) SpatioTemporalWins() (wins, groups int) {
	for i := 0; i+2 < len(r.CyclesOptimized); i += 3 {
		spatial := r.CyclesOptimized[i]
		st1, st2 := r.CyclesOptimized[i+1], r.CyclesOptimized[i+2]
		groups++
		if st1.Cycles < spatial.Cycles || st2.Cycles < spatial.Cycles {
			wins++
		}
	}
	return wins, groups
}

// WriteCSV renders both panels.
func (r *Fig3Result) WriteCSV(w io.Writer) error {
	header := []string{"panel", "M", "N", "K", "array", "cores", "strategy",
		"Pr", "Pc", "cycles", "footprint_words", "best"}
	var rows [][]string
	emit := func(panel string, pts []Fig3Point) {
		for _, p := range pts {
			rows = append(rows, []string{panel, itoa(p.M), itoa(p.N), itoa(p.K),
				itoa(p.Array), itoa(p.Cores), p.Strategy.String(),
				itoa(p.Pr), itoa(p.Pc), i64(p.Cycles), i64(p.Footprint),
				boolStr(p.Best)})
		}
	}
	emit("a_cycles_optimized", r.CyclesOptimized)
	emit("b_footprint_optimized", r.FootprintOptimized)
	return writeCSV(w, header, rows)
}

func boolStr(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
