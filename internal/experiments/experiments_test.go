package experiments

import (
	"bytes"
	"encoding/csv"
	"go/parser"
	"go/token"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/energy"
)

// TestFig3OneBestMarkerPerGroup checks that each panel marks exactly one of
// the three strategies of every configuration group as its best partition.
func TestFig3OneBestMarkerPerGroup(t *testing.T) {
	rows := readGolden(t, "fig3")
	if len(rows)%3 != 0 {
		t.Fatalf("%d rows, not a multiple of 3 strategies", len(rows))
	}
	for i := 0; i < len(rows); i += 3 {
		n := 0
		for _, r := range rows[i : i+3] {
			n += int(num(t, r["best"]))
		}
		if n != 1 {
			t.Errorf("%s group %d has %d best markers", rows[i]["panel"], i/3, n)
		}
	}
}

func TestFig3SpatioTemporalSometimesWins(t *testing.T) {
	wins, groups := 0, 0
	for _, g := range fig3Groups(t, "a_cycles_optimized") {
		groups++
		spatial := num(t, g[config.SpatialPartition.String()]["cycles"])
		if num(t, g[config.SpatioTemporal1.String()]["cycles"]) < spatial ||
			num(t, g[config.SpatioTemporal2.String()]["cycles"]) < spatial {
			wins++
		}
	}
	if groups == 0 {
		t.Fatal("no groups")
	}
	if wins == 0 {
		t.Error("spatio-temporal partitioning never beat spatial; paper reports multiple wins")
	}
	t.Logf("spatio-temporal wins in %d/%d groups", wins, groups)
}

// fig3Groups returns a fig3 panel's configuration groups, each keyed by
// strategy.
func fig3Groups(t *testing.T, panel string) map[string]map[string]map[string]string {
	t.Helper()
	groups := map[string]map[string]map[string]string{}
	for _, r := range readGolden(t, "fig3") {
		if r["panel"] != panel {
			continue
		}
		key := strings.Join([]string{r["M"], r["N"], r["K"], r["array"], r["cores"]}, "/")
		if groups[key] == nil {
			groups[key] = map[string]map[string]string{}
		}
		groups[key][r["strategy"]] = r
	}
	return groups
}

func TestFig7StorageShrinksWithSparsity(t *testing.T) {
	byLayer := map[string]map[string]float64{}
	for _, r := range readGolden(t, "fig7") {
		if byLayer[r["layer"]] == nil {
			byLayer[r["layer"]] = map[string]float64{}
		}
		byLayer[r["layer"]][r["ratio"]] = num(t, r["value_words"]) + num(t, r["metadata_words"])
	}
	for layer, m := range byLayer {
		if !(m["1:4"] < m["2:4"] && m["2:4"] < m["3:4"]) {
			t.Errorf("%s: storage not monotone in density: 1:4=%.0f 2:4=%.0f 3:4=%.0f",
				layer, m["1:4"], m["2:4"], m["3:4"])
		}
	}
}

func TestFig8BlockSizeStudy(t *testing.T) {
	rows := readGolden(t, "fig8")
	if len(rows) != 8 {
		t.Fatalf("got %d points, want 8", len(rows))
	}
	for _, r := range rows {
		if num(t, r["cycles"]) <= 0 {
			t.Errorf("set %s array %s block %s: non-positive cycles", r["set"], r["array"], r["block_size"])
		}
		if d := num(t, r["mean_density"]); d <= 0 || d > 0.5+1e-9 {
			t.Errorf("set %s block %s: mean density %f outside (0, 0.5]", r["set"], r["block_size"], d)
		}
	}
}

func TestDataflowDRAMDirections(t *testing.T) {
	by := map[string]map[string]string{}
	for _, r := range readGolden(t, "dram-dataflow") {
		by[r["dataflow"]] = r
	}
	ws, os := num(t, by["ws"]["compute_cycles"]), num(t, by["os"]["compute_cycles"])
	t.Logf("compute ws=%.0f os=%.0f total ws=%s os=%s", ws, os, by["ws"]["total_cycles"], by["os"]["total_cycles"])
	if ws >= os {
		t.Errorf("WS compute %.0f not below OS compute %.0f (paper: WS wins compute-only)", ws, os)
	}
}

func TestTable3StateOrdering(t *testing.T) {
	pj := map[string]float64{}
	for _, r := range readGolden(t, "table3") {
		pj[r["state"]] = num(t, r["energy_pJ_per_cycle"])
	}
	idle, active, gated := pj[energy.StateIdleClockGated.String()], pj[energy.StateActive.String()],
		pj[energy.StatePowerGated.String()]
	if !(0 < gated && gated < idle && idle < active) {
		t.Errorf("state energies not ordered: gated=%.2f idle=%.2f active=%.2f", gated, idle, active)
	}
}

// TestTable4OverheadsPositive runs table4, which reports wall-clock ratios
// and so has no golden to read, and checks that every workload's feature
// overhead ratios (the columns after workload and baseline_s) are positive.
func TestTable4OverheadsPositive(t *testing.T) {
	var got bytes.Buffer
	for _, e := range All() {
		if e.Name == "table4" {
			if err := e.Run(&got, io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	recs, err := csv.NewReader(&got).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("table4 wrote %d records, want a header and rows", len(recs))
	}
	for _, rec := range recs[1:] {
		for j := 2; j < len(rec); j++ {
			if v, err := strconv.ParseFloat(rec[j], 64); err != nil || v <= 0 {
				t.Errorf("%s: %s = %q, want a positive ratio", rec[0], recs[0][j], rec[j])
			}
		}
	}
}

// TestExperimentsDoNotWireMemory keeps the experiments on the facade: the
// memory machine is built from a Config by the simulator's memory stage,
// never by hand from the SRAM and DRAM engines.
func TestExperimentsDoNotWireMemory(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if path == "scalesim/internal/sram" || path == "scalesim/internal/dram" {
				t.Errorf("%s imports %s; express the machine as a scalesim.Config instead", name, path)
			}
		}
	}
}
