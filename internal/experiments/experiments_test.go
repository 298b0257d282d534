package experiments

import (
	"bytes"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"scalesim/internal/config"
	"scalesim/internal/energy"
)

func TestFig3QuickRuns(t *testing.T) {
	res, err := RunFig3(QuickFig3())
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

func TestFig5SparsityReducesCycles(t *testing.T) {
	pts, err := RunFig5(QuickFig5())
	if err != nil {
		t.Fatal(err)
	}
	// Group by SRAM size: sparser ratios must need fewer cycles.
	bySRAM := map[int]map[string]int64{}
	for _, p := range pts {
		if bySRAM[p.SRAMKB] == nil {
			bySRAM[p.SRAMKB] = map[string]int64{}
		}
		bySRAM[p.SRAMKB][p.Ratio.String()] = p.TotalCycles
	}
	for kb, m := range bySRAM {
		if m["1:4"] >= m["4:4"] {
			t.Errorf("SRAM %d kB: 1:4 cycles %d not below dense %d", kb, m["1:4"], m["4:4"])
		}
	}
	// Larger SRAM must not increase total cycles for the same ratio.
	var small, large int64
	for _, p := range pts {
		if p.Ratio.String() == "2:4" {
			if p.SRAMKB == 96 {
				small = p.TotalCycles
			}
			if p.SRAMKB == 768 {
				large = p.TotalCycles
			}
		}
	}
	if small > 0 && large > small {
		t.Errorf("2:4: larger SRAM (768kB=%d) slower than 96kB=%d", large, small)
	}
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

func TestFig9ChannelsImproveThroughput(t *testing.T) {
	pts, err := RunFig9(QuickFig9())
	if err != nil {
		t.Fatal(err)
	}
	// Average throughput across layers per channel count.
	sum := map[int]float64{}
	cnt := map[int]int{}
	for _, p := range pts {
		sum[p.Channels] += p.ThroughputMBps
		cnt[p.Channels]++
	}
	if avg1, avg4 := sum[1]/float64(cnt[1]), sum[4]/float64(cnt[4]); avg4 < avg1 {
		t.Errorf("4 channels (%.1f MB/s) slower than 1 (%.1f MB/s)", avg4, avg1)
	}
}

func TestFig10BiggerQueueFewerStalls(t *testing.T) {
	pts, err := RunFig10(QuickFig10())
	if err != nil {
		t.Fatal(err)
	}
	byQueue := map[int]int64{}
	for _, p := range pts {
		byQueue[p.Queue] += p.TotalCycles
	}
	// Allow 1% noise: bandwidth-bound layers barely react to queue depth,
	// latency-bound ones improve.
	if byQueue[512] > byQueue[32]+byQueue[32]/100 {
		t.Errorf("queue 512 total %d exceeds queue 32 total %d", byQueue[512], byQueue[32])
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

func TestLayoutQuick(t *testing.T) {
	pts, err := RunLayout(QuickLayout())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3*2*2 {
		t.Fatalf("got %d points, want 12", len(pts))
	}
	// More banks at fixed bandwidth must not worsen the slowdown.
	get := func(df config.Dataflow, bw, banks int) float64 {
		for _, p := range pts {
			if p.Dataflow == df && p.Bandwidth == bw && p.Banks == banks {
				return p.Slowdown
			}
		}
		t.Fatalf("missing point %v %d %d", df, bw, banks)
		return 0
	}
	for _, df := range config.Dataflows() {
		for _, bw := range []int{64, 256} {
			if get(df, bw, 8) > get(df, bw, 1)+1e-9 {
				t.Errorf("%v bw=%d: 8 banks slowdown %.4f worse than 1 bank %.4f",
					df, bw, get(df, bw, 8), get(df, bw, 1))
			}
		}
	}
}

func TestFig15EnergyShapes(t *testing.T) {
	pts, err := RunFig15(QuickFig15())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.EnergyMJ <= 0 {
			t.Errorf("%s %v %d: non-positive energy", p.Workload, p.Dataflow, p.Array)
		}
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

func TestTable5Shapes(t *testing.T) {
	rows, err := RunTable5(QuickTable5())
	if err != nil {
		t.Fatal(err)
	}
	byArray := map[int]Table5Row{}
	for _, r := range rows {
		byArray[r.Array] = r
	}
	// Larger arrays are faster per layer but cost more energy (the
	// paper's headline trade-off).
	if byArray[128].CyclesPerLayer >= byArray[32].CyclesPerLayer {
		t.Errorf("128² cycles/layer %d not below 32² %d",
			byArray[128].CyclesPerLayer, byArray[32].CyclesPerLayer)
	}
	if byArray[128].EnergyMJ <= byArray[32].EnergyMJ {
		t.Errorf("128² energy %.4f not above 32² %.4f (paper: small array more efficient)",
			byArray[128].EnergyMJ, byArray[32].EnergyMJ)
	}
}

// TestAbstractViTBaseScaling scores the paper's abstract: from a 32² to a
// 128² array, ViT-base latency falls 6.53× and energy rises 2.86×. Energy
// lands within 1 %. Latency falls only ≈4.6×: compute alone scales ≈10.4×,
// but memory stalls are ≈97 % of the cycles at 32² and ≈99 % at 128², so
// the error is DRAM saturation on the single DDR4 channel of the default
// machine. The bound pins that term at its present size.
func TestAbstractViTBaseScaling(t *testing.T) {
	p := QuickTable5()
	p.WithMemory = true
	rows, err := RunTable5(p)
	if err != nil {
		t.Fatal(err)
	}
	latency, energy := Table5Scaling(rows, "vit_base")
	latErr, energyErr := math.Abs(latency-6.53)/6.53, math.Abs(energy-2.86)/2.86
	t.Logf("32²→128²: latency ÷%.3f (paper 6.53, rel err %.3f), energy ×%.3f (paper 2.86, rel err %.3f)",
		latency, latErr, energy, energyErr)
	if latency <= 1 || energy <= 1 {
		t.Fatalf("latency ratio %.3f and energy ratio %.3f must both exceed 1", latency, energy)
	}
	if energyErr > 0.02 {
		t.Errorf("energy ratio %.3f is more than 2%% off the paper's 2.86", energy)
	}
	if latErr > 0.30 {
		t.Errorf("latency ratio %.3f has relative error %.3f against the paper's 6.53, above 0.30", latency, latErr)
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

func TestTable6Ratios(t *testing.T) {
	res, err := RunTable6(QuickTable6())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("table6: %+v", res)
	if res.SingleLatencyRatioWSIS <= 0 || res.MultiLatencyRatioWSIS <= 0 {
		t.Fatal("non-positive latency ratios")
	}
	// Paper: multi-core brings the ws/is latency gap down (1.87 → 1.14).
	if res.MultiLatencyRatioWSIS >= res.SingleLatencyRatioWSIS {
		t.Errorf("multi-core ws/is ratio %.3f not below single-core %.3f",
			res.MultiLatencyRatioWSIS, res.SingleLatencyRatioWSIS)
	}
}

func TestTable4OverheadsPositive(t *testing.T) {
	rows, err := RunTable4(QuickTable4())
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
