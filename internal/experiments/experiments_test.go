package experiments

import (
	"bytes"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"scalesim/internal/energy"
)

func TestFig3QuickRuns(t *testing.T) {
	res, err := RunFig3(DefaultFig3())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CyclesOptimized) == 0 || len(res.FootprintOptimized) == 0 {
		t.Fatal("empty Fig3 panels")
	}
	if len(res.CyclesOptimized)%3 != 0 {
		t.Fatalf("panel size %d not a multiple of 3 strategies", len(res.CyclesOptimized))
	}
	// Exactly one best marker per 3-point group.
	for i := 0; i+2 < len(res.CyclesOptimized); i += 3 {
		n := 0
		for j := i; j < i+3; j++ {
			if res.CyclesOptimized[j].Best {
				n++
			}
		}
		if n != 1 {
			t.Errorf("group %d has %d best markers", i/3, n)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty CSV")
	}
}

func TestFig3SpatioTemporalSometimesWins(t *testing.T) {
	res, err := RunFig3(DefaultFig3())
	if err != nil {
		t.Fatal(err)
	}
	wins, groups := res.SpatioTemporalWins()
	if groups == 0 {
		t.Fatal("no groups")
	}
	if wins == 0 {
		t.Error("spatio-temporal partitioning never beat spatial; paper reports multiple wins")
	}
	t.Logf("spatio-temporal wins in %d/%d groups", wins, groups)
}

func TestFig7StorageShrinksWithSparsity(t *testing.T) {
	pts, err := RunFig7()
	if err != nil {
		t.Fatal(err)
	}
	byLayer := map[string]map[string]int64{}
	for _, p := range pts {
		if byLayer[p.LayerName] == nil {
			byLayer[p.LayerName] = map[string]int64{}
		}
		byLayer[p.LayerName][p.Ratio.String()] = p.ValueWords + p.MetadataWords
	}
	for layer, m := range byLayer {
		if !(m["1:4"] < m["2:4"] && m["2:4"] < m["3:4"]) {
			t.Errorf("%s: storage not monotone in density: 1:4=%d 2:4=%d 3:4=%d",
				layer, m["1:4"], m["2:4"], m["3:4"])
		}
	}
}

func TestFig8BlockSizeStudy(t *testing.T) {
	pts, err := RunFig8(DefaultFig8())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	for _, p := range pts {
		if p.Cycles <= 0 {
			t.Errorf("set %d array %d block %d: non-positive cycles", p.Set, p.Array, p.BlockSize)
		}
		if p.MeanRatio <= 0 || p.MeanRatio > 0.5+1e-9 {
			t.Errorf("set %d block %d: mean density %f outside (0, 0.5]", p.Set, p.BlockSize, p.MeanRatio)
		}
	}
}

func TestDataflowDRAMDirections(t *testing.T) {
	res, err := RunDataflowDRAM(DefaultDataflowDRAM())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("compute ws=%d os=%d total ws=%d os=%d; wsAdv=%.3f osAdv=%.3f",
		res.WSCompute, res.OSCompute, res.WSTotal, res.OSTotal,
		res.ComputeAdvantageWS(), res.TotalAdvantageOS())
	if res.WSCompute >= res.OSCompute {
		t.Errorf("WS compute %d not below OS compute %d (paper: WS wins compute-only)",
			res.WSCompute, res.OSCompute)
	}
}

func TestTable3StateOrdering(t *testing.T) {
	rows := RunTable3(8, 8)
	var idle, active, gated float64
	for _, r := range rows {
		switch r.State {
		case energy.StateIdleClockGated:
			idle = r.EnergyPJ
		case energy.StateActive:
			active = r.EnergyPJ
		case energy.StatePowerGated:
			gated = r.EnergyPJ
		}
	}
	if !(gated < idle && idle < active) {
		t.Errorf("state energies not ordered: gated=%.2f idle=%.2f active=%.2f", gated, idle, active)
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

func TestTable4OverheadsPositive(t *testing.T) {
	rows, err := RunTable4(DefaultTable4())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for name, v := range map[string]float64{
			"multicore": r.MultiCore, "s24": r.Sparse24, "s14": r.Sparse14,
			"energy": r.Energy, "memory": r.Memory, "layout": r.Layout,
		} {
			if v <= 0 {
				t.Errorf("%s: non-positive overhead for %s", r.Workload, name)
			}
		}
	}
}
