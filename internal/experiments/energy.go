package experiments

import (
	"fmt"
	"io"

	"scalesim"
	"scalesim/internal/config"
	"scalesim/internal/energy"
	"scalesim/internal/multicore"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// energyConfig is the default machine on an arr×arr array under df with the
// energy model on.
func energyConfig(df config.Dataflow, arr int) scalesim.Config {
	cfg := scalesim.DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = arr, arr
	cfg.Dataflow = df
	cfg.Energy.Enabled = true
	return cfg
}

// fig15 is the dataflow/array-size energy study (paper Fig. 15): whole
// RCNN, ResNet-50 and ViT-base across OS/WS/IS on arrays 8²–128², one sweep
// point per workload × dataflow × array.
func fig15(w, _ io.Writer) error {
	var points []scalesim.SweepPoint
	var keys [][]string
	for _, name := range []string{"rcnn", "resnet50", "vit_base"} {
		topo, err := topology.Builtin(name)
		if err != nil {
			return err
		}
		for _, df := range []config.Dataflow{
			config.OutputStationary, config.WeightStationary, config.InputStationary,
		} {
			for _, arr := range []int{128, 64, 32, 16, 8} {
				points = append(points, scalesim.SweepPoint{Name: fmt.Sprintf("fig15/%s/%s/%d", name, df, arr),
					Config: energyConfig(df, arr), Topology: topo})
				keys = append(keys, []string{name, df.String(), itoa(arr)})
			}
		}
	}
	results, err := sweep(points)
	if err != nil {
		return err
	}
	for i, res := range results {
		keys[i] = append(keys[i], f64(res.TotalEnergyMJ()), i64(res.TotalCycles()))
	}
	return writeCSV(w, []string{"workload", "dataflow", "array", "energy_mJ", "cycles"}, keys)
}

// table3 is the per-cycle energy of each system state (paper Table III) for
// an 8×8 array under the PnR-calibrated unit energies (see energy.PnR65nm),
// also as a fraction of the active state, the shape the PnR validation
// checks.
func table3(w, _ io.Writer) error {
	est := energy.Estimator{ERT: energy.PnR65nm(), PEs: 8 * 8}
	active := est.StateEnergyPJ(energy.StateActive)
	var rows [][]string
	for _, s := range []energy.SystemState{
		energy.StateIdleClockGated, energy.StateActive, energy.StatePowerGated,
	} {
		e := est.StateEnergyPJ(s)
		rows = append(rows, []string{s.String(), f64(e), f64(e / active)})
	}
	return writeCSV(w, []string{"state", "energy_pJ_per_cycle", "fraction_of_active"}, rows)
}

// table5 is the latency/energy/EdP comparison (paper Table V): whole
// ResNet-50, RCNN and ViT-base, output-stationary, on 32², 64² and 128²
// arrays, one sweep point per workload × array. Every run has the
// cycle-accurate DRAM model on, so latency is end-to-end (the paper's Table
// V includes memory effects; without them large arrays look too good and
// the EdP crossover vanishes). EdP is cycles × mJ per layer.
//
// The note gives each workload's scaling from the first to the last array
// size in the orientation of the paper's abstract: latency falls by the
// factor cycles(first)/cycles(last) and energy rises by the factor
// energy(last)/energy(first).
func table5(w, note io.Writer) error {
	arrays := []int{32, 64, 128}
	var points []scalesim.SweepPoint
	var names []string
	for _, name := range []string{"resnet50", "rcnn", "vit_base"} {
		topo, err := topology.Builtin(name)
		if err != nil {
			return err
		}
		for _, arr := range arrays {
			cfg := energyConfig(config.OutputStationary, arr)
			cfg.Memory.Enabled = true
			points = append(points, scalesim.SweepPoint{Name: fmt.Sprintf("table5/%s/%d", name, arr),
				Config: cfg, Topology: topo})
		}
		names = append(names, name)
	}
	results, err := sweep(points)
	if err != nil {
		return err
	}
	var rows [][]string
	cycles := make([]int64, len(results))
	for i, res := range results {
		cycles[i] = res.TotalCycles() / int64(len(res.Layers))
		mj := res.TotalEnergyMJ()
		rows = append(rows, []string{names[i/len(arrays)], itoa(arrays[i%len(arrays)]),
			i64(cycles[i]), f64(mj), f64(float64(cycles[i]) * mj)})
	}
	for wi, name := range names {
		first, last := wi*len(arrays), (wi+1)*len(arrays)-1
		fmt.Fprintf(note, "table5: %s from %d² to %d²: latency ÷%.3f, energy ×%.3f (abstract, vit_base: ÷6.53, ×2.86)\n",
			name, arrays[0], arrays[len(arrays)-1], float64(cycles[first])/float64(cycles[last]),
			results[last].TotalEnergyMJ()/results[first].TotalEnergyMJ())
	}
	return writeCSV(w, []string{"workload", "array", "cycles_per_layer", "energy_mJ", "EdP"}, rows)
}

// table6 is the iso-compute multi-core study (paper Table VI): a single
// 128×128 core versus 16 cores of 32×32 PEs on the whole ViT-base,
// comparing WS against IS in latency and energy, written as ws/is ratios in
// the paper's orientation.
//
// Note on labels: the paper's Table II swaps the IS and WS rows relative to
// operand semantics (its "WS" pins the K×M input-shaped operand). We use
// operand-true labels (our WS pins the K×N weights), so the paper's "ws/is"
// columns correspond to our cycles(WS)/cycles(IS) for latency and our
// energy(IS)/energy(WS) for energy — both quantify how much the dataflow
// pinning the small ViT input operand beats the one pinning the weights.
// The paper reports 1.87 and 0.71 on the single core, 1.14 and 0.70 on the
// multi-core design, and an EdP ratio EdP(WS)/EdP(IS) of 1.31 there (> 1
// means the input-pinning dataflow wins EdP).
func table6(w, _ io.Writer) error {
	topo, err := topology.Builtin("vit_base")
	if err != nil {
		return err
	}
	cfg := config.Default()
	ert, ecfg := energy.Default65nm(), cfg.Energy
	sramKB := int64(cfg.IfmapSRAMKB + cfg.FilterSRAMKB + cfg.OfmapSRAMKB)

	// multi(df): best 16-core 32×32 partition per layer.
	multi := func(df config.Dataflow) (int64, float64, error) {
		var cycles int64
		var mj float64
		for li := range topo.Layers {
			m, n, k := topo.Layers[li].GEMMDims()
			mp := systolic.MappingFor(df, m, n, k)
			ch, err := multicore.Search(config.SpatialPartition, 16, 32, 32, mp, multicore.MinCycles)
			if err != nil {
				return 0, 0, err
			}
			cycles += ch.Cycles
			// Energy: same action counts as a 128×128-PE budget but
			// with the multi-core cycle count driving leakage.
			prof := energy.ProfileFromEstimate(df, systolic.Estimate(df, 32, 32, m, n, k), m, n, k)
			prof.Cycles = ch.Cycles
			pes := int64(16 * 32 * 32)
			if prof.Cycles > 0 {
				prof.Utilization = float64(int64(m)*int64(n)*int64(k)) /
					(float64(pes) * float64(prof.Cycles))
			}
			prof.R, prof.C = 128, 128 // PE budget for MAC counting
			counts := energy.CountActions(prof, &ecfg)
			est := energy.Estimator{ERT: ert, PEs: pes, SRAMKB: sramKB,
				FrequencyMHz: ecfg.FrequencyMHz}
			rep, err := est.Estimate(counts, ch.Cycles)
			if err != nil {
				return 0, 0, err
			}
			mj += rep.TotalMJ()
		}
		return cycles, mj, nil
	}

	// The single 128×128 core is the default machine.
	singles, err := sweep([]scalesim.SweepPoint{
		{Name: "table6/single/ws", Config: energyConfig(config.WeightStationary, 128), Topology: topo},
		{Name: "table6/single/is", Config: energyConfig(config.InputStationary, 128), Topology: topo},
	})
	if err != nil {
		return err
	}
	mWSc, mWSe, err := multi(config.WeightStationary)
	if err != nil {
		return err
	}
	mISc, mISe, err := multi(config.InputStationary)
	if err != nil {
		return err
	}
	return writeCSV(w, []string{"configuration", "latency_ratio_ws_is", "energy_ratio_ws_is"}, [][]string{
		{"single_128x128", f64(float64(singles[0].TotalCycles()) / float64(singles[1].TotalCycles())),
			f64(singles[1].TotalEnergyMJ() / singles[0].TotalEnergyMJ())},
		{"multi_16x32x32", f64(float64(mWSc) / float64(mISc)), f64(mISe / mWSe)},
		{"multi_EdP_ws_over_is", f64(float64(mWSc) * mWSe / (float64(mISc) * mISe)), ""},
	})
}
