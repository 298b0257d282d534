package experiments

import (
	"fmt"
	"io"

	"scalesim/internal/config"
	"scalesim/internal/multicore"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// fig3 is the partitioning trade-off study (paper Fig. 3): GEMM workloads
// with M,N,K ∈ {1000, 5000, 10000} (27 workloads) on scale-out systems of
// {16, 32, 64} cores with {8, 16, 32}² arrays, with Pr×Pc chosen to optimize
// either compute cycles (panel a) or memory footprint (panel b) for each of
// the three partitioning strategies. The note counts the panel-(a) groups
// where a spatio-temporal strategy beats spatial on cycles, the paper's
// headline observation for Fig. 3a.
func fig3(w, note io.Writer) error {
	mnk := []int{1000, 5000, 10000}
	topo := topology.GEMMSweep(mnk, mnk, mnk)
	var a, b [][]string
	wins, groups := 0, 0
	for _, arr := range []int{8, 16, 32} {
		for _, cores := range []int{16, 32, 64} {
			for li := range topo.Layers {
				m, n, k := topo.Layers[li].GEMMDims()
				mp := systolic.MappingFor(config.OutputStationary, m, n, k)
				// rows renders one group; its best column marks the
				// strategy that wins the secondary objective (the paper's
				// "Best Partition" markers: the least-footprint point in
				// the cycles-optimized plot and vice versa).
				rows := func(panel string, obj, secondary multicore.Objective) ([][]string, [3]multicore.Choice, error) {
					chs, err := multicore.SearchAll(cores, arr, arr, mp, obj)
					if err != nil {
						return nil, chs, err
					}
					best := bestChoice(chs, secondary)
					out := make([][]string, len(chs))
					for i, ch := range chs {
						out[i] = []string{panel, itoa(m), itoa(n), itoa(k), itoa(arr), itoa(cores),
							ch.Partition.Strategy.String(), itoa(ch.Partition.Pr), itoa(ch.Partition.Pc),
							i64(ch.Cycles), i64(ch.Footprint), boolStr(i == best)}
					}
					return out, chs, nil
				}

				ra, cyc, err := rows("a_cycles_optimized", multicore.MinCycles, multicore.MinFootprint)
				if err != nil {
					return err
				}
				rb, _, err := rows("b_footprint_optimized", multicore.MinFootprint, multicore.MinCycles)
				if err != nil {
					return err
				}
				a, b = append(a, ra...), append(b, rb...)
				groups++
				if cyc[1].Cycles < cyc[0].Cycles || cyc[2].Cycles < cyc[0].Cycles {
					wins++
				}
			}
		}
	}
	fmt.Fprintf(note, "fig3: spatio-temporal beats spatial in %d/%d cycle-optimized groups\n", wins, groups)
	return writeCSV(w, []string{"panel", "M", "N", "K", "array", "cores", "strategy",
		"Pr", "Pc", "cycles", "footprint_words", "best"}, append(a, b...))
}

// bestChoice returns the index of the choice that wins obj, the earliest on
// a tie.
func bestChoice(chs [3]multicore.Choice, obj multicore.Objective) int {
	best := 0
	for i := 1; i < len(chs); i++ {
		c, b := chs[i], chs[best]
		switch obj {
		case multicore.MinFootprint:
			if c.Footprint < b.Footprint || (c.Footprint == b.Footprint && c.Cycles < b.Cycles) {
				best = i
			}
		default:
			if c.Cycles < b.Cycles || (c.Cycles == b.Cycles && c.Footprint < b.Footprint) {
				best = i
			}
		}
	}
	return best
}

func boolStr(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
