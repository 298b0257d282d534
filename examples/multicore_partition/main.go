// Multicore partitioning: explore spatial vs spatio-temporal partitioning
// of a large GEMM over a 16-core scale-out accelerator, then run a
// heterogeneous two-tier design with non-uniform (NoP-aware) partitioning —
// the Simba-style scenario from the paper's Section III.
package main

import (
	"fmt"
	"log"

	"scalesim/internal/config"
	"scalesim/internal/multicore"
	"scalesim/internal/systolic"
)

func main() {
	// A transformer-scale GEMM: 4096×4096 @ K=1024.
	m, n, k := 4096, 4096, 1024
	mp := systolic.MappingFor(config.OutputStationary, m, n, k)
	fmt.Printf("GEMM M=%d N=%d K=%d → Sr=%d Sc=%d T=%d (output stationary)\n\n",
		m, n, k, mp.Sr, mp.Sc, mp.T)

	// Part 1: evaluate all three strategies on 16 cores of 32×32 PEs.
	fmt.Println("== partition search: 16 cores of 32x32 ==")
	choices, err := multicore.SearchAll(16, 32, 32, mp, multicore.MinCycles)
	if err != nil {
		log.Fatal(err)
	}
	for _, ch := range choices {
		fmt.Printf("%-22s Pr=%d Pc=%d  cycles=%-10d footprint=%d words (L2 saves %d)\n",
			ch.Partition.Strategy, ch.Partition.Pr, ch.Partition.Pc,
			ch.Cycles, ch.Footprint, multicore.L2SavedWords(ch.Partition, mp))
	}

	// Part 2: heterogeneous tensor cores — two big MXUs near memory plus
	// four small far-away chiplets, with and without non-uniform
	// partitioning.
	fmt.Println("\n== heterogeneous cores, NoP-aware partitioning ==")
	cores := []config.CoreSpec{
		{Rows: 64, Cols: 64, NoPHops: 0},
		{Rows: 64, Cols: 64, NoPHops: 0},
		{Rows: 32, Cols: 32, NoPHops: 3},
		{Rows: 32, Cols: 32, NoPHops: 3},
		{Rows: 32, Cols: 32, NoPHops: 4},
		{Rows: 32, Cols: 32, NoPHops: 4},
	}
	for _, nonUniform := range []bool{false, true} {
		res, err := multicore.SimulateHetero(cores, mp, multicore.HeteroOptions{
			HopLatency: 2000,
			NonUniform: nonUniform,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("non-uniform=%-5v makespan=%d cycles, imbalance=%.1f%%\n",
			nonUniform, res.Cycles, 100*res.Imbalance)
		for i, cr := range res.Cores {
			fmt.Printf("  core %d (%dx%d, %d hops): cols=%d compute=%d nop=%d\n",
				i, cr.Spec.Rows, cr.Spec.Cols, cr.Spec.NoPHops,
				cr.ColsAssigned, cr.ComputeCycles, cr.NoPCycles)
		}
	}
}
