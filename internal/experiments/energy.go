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

// Fig15Params configures the dataflow/array-size energy study (paper
// Fig. 15): RCNN, ResNet-50 and ViT across OS/WS/IS on arrays 8²–128².
type Fig15Params struct {
	Workloads []string
	Arrays    []int
}

// DefaultFig15 matches the paper.
func DefaultFig15() Fig15Params {
	return Fig15Params{
		Workloads: []string{"rcnn", "resnet50", "vit_base"},
		Arrays:    []int{128, 64, 32, 16, 8},
	}
}

// Fig15Point is one workload × dataflow × array-size energy.
type Fig15Point struct {
	Workload string
	Dataflow config.Dataflow
	Array    int
	EnergyMJ float64
	Cycles   int64
}

// RunFig15 executes the sweep over each whole workload: one point per
// workload × dataflow × array.
func RunFig15(p Fig15Params) ([]Fig15Point, error) {
	var points []scalesim.SweepPoint
	var keys []Fig15Point
	for _, name := range p.Workloads {
		topo, err := topology.Builtin(name)
		if err != nil {
			return nil, err
		}
		for _, df := range []config.Dataflow{
			config.OutputStationary, config.WeightStationary, config.InputStationary,
		} {
			for _, arr := range p.Arrays {
				points = append(points, scalesim.SweepPoint{Name: fmt.Sprintf("fig15/%s/%s/%d", name, df, arr),
					Config: energyConfig(df, arr), Topology: topo})
				keys = append(keys, Fig15Point{Workload: name, Dataflow: df, Array: arr})
			}
		}
	}
	results, err := sweep(points)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		keys[i].EnergyMJ, keys[i].Cycles = res.TotalEnergyMJ(), res.TotalCycles()
	}
	return keys, nil
}

// WriteFig15CSV renders the energy bars.
func WriteFig15CSV(w io.Writer, pts []Fig15Point) error {
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{p.Workload, p.Dataflow.String(),
			itoa(p.Array), f64(p.EnergyMJ), i64(p.Cycles)})
	}
	return writeCSV(w, []string{"workload", "dataflow", "array", "energy_mJ", "cycles"}, rows)
}

// Table3Row is one system state's per-cycle energy (paper Table III).
type Table3Row struct {
	State    energy.SystemState
	EnergyPJ float64
	// FractionOfActive normalizes against the active state, the shape
	// the PnR validation checks.
	FractionOfActive float64
}

// RunTable3 evaluates the idle/active/power-gated states for an array
// using the PnR-calibrated unit energies (see energy.PnR65nm).
func RunTable3(rows, cols int) []Table3Row {
	est := energy.Estimator{ERT: energy.PnR65nm(), PEs: int64(rows) * int64(cols)}
	states := []energy.SystemState{
		energy.StateIdleClockGated, energy.StateActive, energy.StatePowerGated,
	}
	var out []Table3Row
	active := est.StateEnergyPJ(energy.StateActive)
	for _, s := range states {
		e := est.StateEnergyPJ(s)
		fr := 0.0
		if active > 0 {
			fr = e / active
		}
		out = append(out, Table3Row{State: s, EnergyPJ: e, FractionOfActive: fr})
	}
	return out
}

// WriteTable3CSV renders the state energies.
func WriteTable3CSV(w io.Writer, rows []Table3Row) error {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.State.String(), f64(r.EnergyPJ), f64(r.FractionOfActive)})
	}
	return writeCSV(w, []string{"state", "energy_pJ_per_cycle", "fraction_of_active"}, out)
}

// Table5Params configures the latency/energy/EdP comparison (paper
// Table V): ResNet-50, RCNN and ViT-base on 32², 64² and 128² arrays.
// Every run has the cycle-accurate DRAM model on, so latency is end-to-end
// (the paper's Table V includes memory effects; without them large arrays
// look too good and the EdP crossover vanishes).
type Table5Params struct {
	Workloads []string
	Arrays    []int
	Dataflow  config.Dataflow
}

// DefaultTable5 matches the paper.
func DefaultTable5() Table5Params {
	return Table5Params{
		Workloads: []string{"resnet50", "rcnn", "vit_base"},
		Arrays:    []int{32, 64, 128},
		Dataflow:  config.OutputStationary,
	}
}

// Table5Row is one workload × array measurement.
type Table5Row struct {
	Workload       string
	Array          int
	CyclesPerLayer int64
	EnergyMJ       float64
	EdP            float64 // cycles × mJ per layer
}

// RunTable5 executes the comparison over each whole workload: one sweep
// point per workload × array size.
func RunTable5(p Table5Params) ([]Table5Row, error) {
	var points []scalesim.SweepPoint
	var keys []Table5Row
	for _, name := range p.Workloads {
		topo, err := topology.Builtin(name)
		if err != nil {
			return nil, err
		}
		for _, arr := range p.Arrays {
			cfg := energyConfig(p.Dataflow, arr)
			cfg.Memory.Enabled = true
			points = append(points, scalesim.SweepPoint{Name: fmt.Sprintf("table5/%s/%d", name, arr),
				Config: cfg, Topology: topo})
			keys = append(keys, Table5Row{Workload: name, Array: arr})
		}
	}
	results, err := sweep(points)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		row := &keys[i]
		row.CyclesPerLayer = res.TotalCycles() / int64(len(res.Layers))
		row.EnergyMJ = res.TotalEnergyMJ()
		row.EdP = float64(row.CyclesPerLayer) * row.EnergyMJ
	}
	return keys, nil
}

// Table5Scaling returns a workload's scaling from its first to its last
// array size in the orientation of the paper's abstract: latency falls by
// the factor cycles(first)/cycles(last) and energy rises by the factor
// energy(last)/energy(first). Both are 0 when the workload has no rows.
func Table5Scaling(rows []Table5Row, name string) (latency, energy float64) {
	var first, last *Table5Row
	for i := range rows {
		if rows[i].Workload != name {
			continue
		}
		if first == nil {
			first = &rows[i]
		}
		last = &rows[i]
	}
	if first == nil || last.CyclesPerLayer == 0 || first.EnergyMJ == 0 {
		return 0, 0
	}
	return float64(first.CyclesPerLayer) / float64(last.CyclesPerLayer), last.EnergyMJ / first.EnergyMJ
}

// WriteTable5CSV renders the comparison.
func WriteTable5CSV(w io.Writer, rows []Table5Row) error {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Workload, itoa(r.Array),
			i64(r.CyclesPerLayer), f64(r.EnergyMJ), f64(r.EdP)})
	}
	return writeCSV(w, []string{"workload", "array", "cycles_per_layer", "energy_mJ", "EdP"}, out)
}

// Table6Params configures the iso-compute multi-core study (paper
// Table VI): a single 128×128 core versus 16 cores of 32×32 PEs on
// ViT-base, comparing WS against IS in latency and energy.
type Table6Params struct {
	Workload string
}

// DefaultTable6 matches the paper.
func DefaultTable6() Table6Params {
	return Table6Params{Workload: "vit_base"}
}

// Table6Result holds the four ws/is ratios in the paper's orientation.
//
// Note on labels: the paper's Table II swaps the IS and WS rows relative to
// operand semantics (its "WS" pins the K×M input-shaped operand). We use
// operand-true labels (our WS pins the K×N weights), so the paper's "ws/is"
// columns correspond to our cycles(WS)/cycles(IS) for latency and our
// energy(IS)/energy(WS) for energy — both quantify how much the dataflow
// pinning the small ViT input operand beats the one pinning the weights.
type Table6Result struct {
	SingleLatencyRatioWSIS float64 // paper Table VI "Latency 1.87"
	SingleEnergyRatioWSIS  float64 // paper Table VI "Energy 0.71"
	MultiLatencyRatioWSIS  float64 // paper Table VI "Latency 1.14"
	MultiEnergyRatioWSIS   float64 // paper Table VI "Energy 0.70"
	// MultiEdPRatioISWS > 1 means the input-pinning dataflow wins EdP on
	// the multi-core design; the paper reports 1.31×.
	MultiEdPRatioISWS float64
}

// RunTable6 executes the study over the whole workload.
func RunTable6(p Table6Params) (*Table6Result, error) {
	topo, err := topology.Builtin(p.Workload)
	if err != nil {
		return nil, err
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
		return nil, err
	}
	sWSc, sWSe := singles[0].TotalCycles(), singles[0].TotalEnergyMJ()
	sISc, sISe := singles[1].TotalCycles(), singles[1].TotalEnergyMJ()
	mWSc, mWSe, err := multi(config.WeightStationary)
	if err != nil {
		return nil, err
	}
	mISc, mISe, err := multi(config.InputStationary)
	if err != nil {
		return nil, err
	}

	res := &Table6Result{}
	if sISc > 0 {
		res.SingleLatencyRatioWSIS = float64(sWSc) / float64(sISc)
	}
	if sWSe > 0 {
		res.SingleEnergyRatioWSIS = sISe / sWSe
	}
	if mISc > 0 {
		res.MultiLatencyRatioWSIS = float64(mWSc) / float64(mISc)
	}
	if mWSe > 0 {
		res.MultiEnergyRatioWSIS = mISe / mWSe
	}
	wsEdP := float64(mWSc) * mWSe
	isEdP := float64(mISc) * mISe
	if isEdP > 0 {
		res.MultiEdPRatioISWS = wsEdP / isEdP
	}
	return res, nil
}

// WriteTable6CSV renders the ratios.
func WriteTable6CSV(w io.Writer, r *Table6Result) error {
	rows := [][]string{
		{"single_128x128", f64(r.SingleLatencyRatioWSIS), f64(r.SingleEnergyRatioWSIS)},
		{"multi_16x32x32", f64(r.MultiLatencyRatioWSIS), f64(r.MultiEnergyRatioWSIS)},
		{"multi_EdP_ws_over_is", f64(r.MultiEdPRatioISWS), ""},
	}
	return writeCSV(w, []string{"configuration", "latency_ratio_ws_is", "energy_ratio_ws_is"}, rows)
}
