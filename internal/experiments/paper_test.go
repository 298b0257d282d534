package experiments

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"scalesim/internal/config"
)

// The tests in this file check the paper's claims on the default grids'
// CSVs under cmd/experiments/testdata/paper instead of re-running the grids.
// TestPaperGoldens in cmd/experiments keeps those files fresh: it fails
// unless each one equals, byte for byte, what its experiment writes.

// readGolden returns the rows of the golden <name>.csv, each keyed by the
// header's column names.
func readGolden(t *testing.T, name string) []map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "cmd", "experiments", "testdata", "paper", name+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("%s.csv has no rows", name)
	}
	rows := make([]map[string]string, len(recs)-1)
	for i, rec := range recs[1:] {
		rows[i] = map[string]string{}
		for j, col := range recs[0] {
			rows[i][col] = rec[j]
		}
	}
	return rows
}

// num parses a golden cell.
func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// table5Scaling returns a table5.csv workload's scaling from its first to
// its last array size in the orientation of the paper's abstract: latency
// falls by the factor cycles(first)/cycles(last) and energy rises by the
// factor energy(last)/energy(first).
func table5Scaling(t *testing.T, workload string) (latency, energy float64) {
	t.Helper()
	var first, last map[string]string
	for _, r := range readGolden(t, "table5") {
		if r["workload"] != workload {
			continue
		}
		if first == nil {
			first = r
		}
		last = r
	}
	if first == nil {
		t.Fatalf("table5.csv has no %s rows", workload)
	}
	return num(t, first["cycles_per_layer"]) / num(t, last["cycles_per_layer"]),
		num(t, last["energy_mJ"]) / num(t, first["energy_mJ"])
}

// table6Ratio returns the table6.csv cell of configuration cfg in column col.
func table6Ratio(t *testing.T, cfg, col string) float64 {
	t.Helper()
	for _, r := range readGolden(t, "table6") {
		if r["configuration"] == cfg {
			return num(t, r[col])
		}
	}
	t.Fatalf("table6.csv has no %s row", cfg)
	return 0
}

func TestFig5SparsityReducesCycles(t *testing.T) {
	// Group by SRAM size: sparser ratios must need fewer cycles.
	bySRAM := map[string]map[string]float64{}
	for _, r := range readGolden(t, "fig5") {
		if bySRAM[r["sram_kb"]] == nil {
			bySRAM[r["sram_kb"]] = map[string]float64{}
		}
		bySRAM[r["sram_kb"]][r["ratio"]] = num(t, r["total_cycles"])
	}
	for kb, m := range bySRAM {
		if m["1:4"] >= m["4:4"] {
			t.Errorf("SRAM %s kB: 1:4 cycles %.0f not below dense %.0f", kb, m["1:4"], m["4:4"])
		}
	}
	// Larger SRAM must not increase total cycles for the same ratio.
	if small, large := bySRAM["96"]["2:4"], bySRAM["768"]["2:4"]; small == 0 || large > small {
		t.Errorf("2:4: larger SRAM (768kB=%.0f) slower than 96kB=%.0f", large, small)
	}
}

func TestFig9ChannelsImproveThroughput(t *testing.T) {
	// Average throughput across layers per channel count.
	sum := map[string]float64{}
	cnt := map[string]int{}
	for _, r := range readGolden(t, "fig9") {
		sum[r["channels"]] += num(t, r["throughput_MBps"])
		cnt[r["channels"]]++
	}
	if avg1, avg4 := sum["1"]/float64(cnt["1"]), sum["4"]/float64(cnt["4"]); !(avg4 >= avg1) {
		t.Errorf("4 channels (%.1f MB/s) slower than 1 (%.1f MB/s)", avg4, avg1)
	}
}

func TestFig10BiggerQueueFewerStalls(t *testing.T) {
	byQueue := map[string]map[string]float64{}
	for _, r := range readGolden(t, "fig10") {
		if byQueue[r["workload"]] == nil {
			byQueue[r["workload"]] = map[string]float64{}
		}
		byQueue[r["workload"]][r["queue"]] = num(t, r["total_cycles"])
	}
	// Allow 1% noise: bandwidth-bound layers barely react to queue depth,
	// latency-bound ones improve.
	for name, m := range byQueue {
		if m["512"] > m["32"]*1.01 {
			t.Errorf("%s: queue 512 total %.0f exceeds queue 32 total %.0f", name, m["512"], m["32"])
		}
	}
}

// TestLayoutMoreBanksNeverWorse checks Figs. 12 and 13 and the naive-layout
// ablation: on every grid, 8 banks at a fixed bandwidth never slow a
// dataflow down more than 1 bank does.
func TestLayoutMoreBanksNeverWorse(t *testing.T) {
	bandwidths := []int{64, 128, 256, 512, 1024}
	for _, name := range []string{"fig12", "fig13", "layout-ablation"} {
		slowdown := map[string]float64{}
		rows := readGolden(t, name)
		for _, r := range rows {
			slowdown[r["dataflow"]+"/"+r["bandwidth"]+"/"+r["banks"]] = num(t, r["slowdown"])
		}
		if len(rows) != 75 || len(slowdown) != 75 {
			t.Fatalf("%s: got %d rows for %d points, want 75", name, len(rows), len(slowdown))
		}
		get := func(df config.Dataflow, bw, banks int) float64 {
			key := df.String() + "/" + strconv.Itoa(bw) + "/" + strconv.Itoa(banks)
			v, ok := slowdown[key]
			if !ok {
				t.Fatalf("%s: missing point %s", name, key)
			}
			return v
		}
		for _, df := range config.Dataflows() {
			for _, bw := range bandwidths {
				if get(df, bw, 8) > get(df, bw, 1)+1e-9 {
					t.Errorf("%s %v bw=%d: 8 banks slowdown %.4f worse than 1 bank %.4f",
						name, df, bw, get(df, bw, 8), get(df, bw, 1))
				}
			}
		}
	}
}

func TestFig15EnergyShapes(t *testing.T) {
	for _, r := range readGolden(t, "fig15") {
		if num(t, r["energy_mJ"]) <= 0 {
			t.Errorf("%s %s %s: non-positive energy", r["workload"], r["dataflow"], r["array"])
		}
	}
}

func TestTable5Shapes(t *testing.T) {
	byArray := map[string]map[string]map[string]string{}
	for _, r := range readGolden(t, "table5") {
		if byArray[r["workload"]] == nil {
			byArray[r["workload"]] = map[string]map[string]string{}
		}
		byArray[r["workload"]][r["array"]] = r
	}
	// Larger arrays are faster per layer but cost more energy (the
	// paper's headline trade-off).
	for name, m := range byArray {
		if c128, c32 := num(t, m["128"]["cycles_per_layer"]), num(t, m["32"]["cycles_per_layer"]); c128 >= c32 {
			t.Errorf("%s: 128² cycles/layer %.0f not below 32² %.0f", name, c128, c32)
		}
		if e128, e32 := num(t, m["128"]["energy_mJ"]), num(t, m["32"]["energy_mJ"]); e128 <= e32 {
			t.Errorf("%s: 128² energy %.4f not above 32² %.4f (paper: small array more efficient)",
				name, e128, e32)
		}
	}
}

// TestAbstractViTBaseScaling scores the paper's abstract: from a 32² to a
// 128² array, ViT-base latency falls 6.53× and energy rises 2.86×. Energy
// lands within 1 %. Latency falls only ≈4.6×: compute alone scales ≈10.4×,
// but memory stalls are ≈97 % of the cycles at 32² and ≈99 % at 128², so
// the error is DRAM saturation on the single DDR4 channel of the default
// machine. The bound pins that term at its present size.
func TestAbstractViTBaseScaling(t *testing.T) {
	latency, energy := table5Scaling(t, "vit_base")
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

func TestTable6Ratios(t *testing.T) {
	single := table6Ratio(t, "single_128x128", "latency_ratio_ws_is")
	multi := table6Ratio(t, "multi_16x32x32", "latency_ratio_ws_is")
	t.Logf("table6: ws/is latency single %.3f, multi %.3f", single, multi)
	if single <= 0 || multi <= 0 {
		t.Fatal("non-positive latency ratios")
	}
	// Paper: multi-core brings the ws/is latency gap down (1.87 → 1.14).
	if multi >= single {
		t.Errorf("multi-core ws/is ratio %.3f not below single-core %.3f", multi, single)
	}
}

// TestPaperScorecard scores every paper number the code cites: the
// abstract's 32²→128² ViT-base pair (Table V's runs, memory on) and the
// five Table VI ratios. It logs all seven and pins each relative error at
// its measured size, so a model change that moves any of them fails here,
// naming the number it moved. A change that improves one re-measures the
// table; it never loosens the tolerance.
func TestPaperScorecard(t *testing.T) {
	latency, energy := table5Scaling(t, "vit_base")
	const lat, en = "latency_ratio_ws_is", "energy_ratio_ws_is"
	const tolerance = 0.01
	for _, n := range []struct {
		name, orientation, source string
		paper, model              float64
		relErr                    float64 // measured relative error
	}{
		{"abstract, latency 32²→128²", "cycles(32²) / cycles(128²)", "table5", 6.53, latency, 0.296},
		{"abstract, energy 32²→128²", "energy(128²) / energy(32²)", "table5", 2.86, energy, 0.007},
		{"Table VI single 128², latency", "cycles(WS) / cycles(IS)", "table6", 1.87, table6Ratio(t, "single_128x128", lat), 0.062},
		{"Table VI single 128², energy", "energy(IS) / energy(WS)", "table6", 0.71, table6Ratio(t, "single_128x128", en), 0.033},
		{"Table VI 16×32², latency", "cycles(WS) / cycles(IS)", "table6", 1.14, table6Ratio(t, "multi_16x32x32", lat), 0.028},
		{"Table VI 16×32², energy", "energy(IS) / energy(WS)", "table6", 0.70, table6Ratio(t, "multi_16x32x32", en), 0.492},
		{"Table VI 16×32², EdP", "EdP(WS) / EdP(IS)", "table6", 1.31, table6Ratio(t, "multi_EdP_ws_over_is", lat), 0.190},
	} {
		relErr := math.Abs(n.model-n.paper) / n.paper
		t.Logf("%-30s %-27s %-14s paper %.3f model %.3f rel err %.3f",
			n.name, n.orientation, n.source, n.paper, n.model, relErr)
		if math.Abs(relErr-n.relErr) > tolerance {
			t.Errorf("%s: relative error %.3f moved from its measured %.3f (model %.3f, paper %.3f)",
				n.name, relErr, n.relErr, n.model, n.paper)
		}
	}
}
