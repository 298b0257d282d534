package report

import (
	"bytes"
	"encoding/csv"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestWriteCompute(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCompute(&buf, []ComputeRow{{
		LayerName: "Conv1", Dataflow: "os", M: 1, N: 2, K: 3,
		ComputeCycles: 100, StallCycles: 10, TotalCycles: 110,
		Utilization: 0.5, MappingEfficiency: 0.75,
	}})
	if err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 2 || rows[1][0] != "Conv1" || rows[1][7] != "110" {
		t.Errorf("rows: %v", rows)
	}
}

func TestWriteBandwidthAndMemory(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBandwidth(&buf, []BandwidthRow{{LayerName: "L", DRAMReadWords: 5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ThroughputMBps") {
		t.Error("bandwidth header missing")
	}
	buf.Reset()
	if err := WriteMemory(&buf, []MemoryRow{{LayerName: "L", RowHits: 9}}); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if rows[1][2] != "9" {
		t.Errorf("row hits column: %v", rows[1])
	}
}

func TestWriteSparseAndEnergy(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSparse(&buf, []SparseRow{{
		LayerName: "L", Representation: "ellpack_block", Ratio: "2:4",
		OriginalFilterWords: 100, CompressedFilterWords: 60, MetadataWords: 10,
	}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ellpack_block") {
		t.Error("sparse row missing")
	}
	buf.Reset()
	if err := WriteEnergy(&buf, []EnergyRow{{LayerName: "L", TotalMJ: 1.5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1.500000") {
		t.Errorf("energy row missing: %q", buf.String())
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{TotalCycles: 10, TotalStallCycles: 2, TotalEnergyMJ: 0.5, AvgPowerMW: 3}
	if got := s.String(); !strings.Contains(got, "cycles=10") || !strings.Contains(got, "stalls=2") {
		t.Errorf("summary: %q", got)
	}
}

func TestSummaryDerive(t *testing.T) {
	cases := []struct {
		name    string
		in      Summary
		freqMHz float64
		want    Summary // derived fields only
	}{
		{
			name: "all models on",
			in: Summary{
				TotalCycles: 1000, TotalEnergyMJ: 0.5,
				TotalMACs: 2_000_000, TotalDRAMBytes: 4_000_000,
			},
			freqMHz: 1000, // 1000 cycles @ 1 GHz = 1 µs
			want: Summary{
				EDP: 500,
				// 2·2e6 ops / 1e-6 s = 4e12 ops/s = 4 TOPS.
				EffectiveTOPS:   4,
				DRAMBytesPerMAC: 2,
			},
		},
		{
			name:    "energy off",
			in:      Summary{TotalCycles: 100, TotalMACs: 100, TotalDRAMBytes: 50},
			freqMHz: 1000,
			want:    Summary{EDP: 0, EffectiveTOPS: 0.002, DRAMBytesPerMAC: 0.5},
		},
		{
			name:    "unknown clock leaves TOPS zero",
			in:      Summary{TotalCycles: 100, TotalMACs: 100, TotalEnergyMJ: 1},
			freqMHz: 0,
			want:    Summary{EDP: 100, EffectiveTOPS: 0, DRAMBytesPerMAC: 0},
		},
		{
			name:    "empty run divides nothing",
			in:      Summary{},
			freqMHz: 1000,
			want:    Summary{},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.in
			s.Derive(c.freqMHz)
			if s.EDP != c.want.EDP {
				t.Errorf("EDP = %v, want %v", s.EDP, c.want.EDP)
			}
			if diff := s.EffectiveTOPS - c.want.EffectiveTOPS; diff > 1e-15 || diff < -1e-15 {
				t.Errorf("EffectiveTOPS = %v, want %v", s.EffectiveTOPS, c.want.EffectiveTOPS)
			}
			if s.DRAMBytesPerMAC != c.want.DRAMBytesPerMAC {
				t.Errorf("DRAMBytesPerMAC = %v, want %v", s.DRAMBytesPerMAC, c.want.DRAMBytesPerMAC)
			}
		})
	}
}

func TestWriteFrontier(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrontier(&buf,
		[]string{"array", "dataflow"}, []string{"cycles", "energy_mj"},
		[]FrontierRow{
			{Name: "array=16,dataflow=os", AxisValues: []string{"16", "os"}, Objectives: []float64{1204, 0.25}, Fidelity: "event"},
			{Name: "array=32,dataflow=ws", AxisValues: []string{"32", "ws"}, Objectives: []float64{900, 0.5}, Fidelity: "analytical"},
		})
	if err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	wantHeader := []string{"Point", "array", "dataflow", "cycles", "energy_mj", "fidelity"}
	for i, h := range wantHeader {
		if rows[0][i] != h {
			t.Errorf("header[%d] = %q, want %q", i, rows[0][i], h)
		}
	}
	if rows[1][1] != "16" || rows[1][3] != "1204.000000" || rows[2][2] != "ws" {
		t.Errorf("rows: %v", rows)
	}
	if rows[1][5] != "event" || rows[2][5] != "analytical" {
		t.Errorf("fidelity column: %v", rows)
	}
}

func TestWriteFrontierShapeMismatch(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrontier(&buf, []string{"array"}, []string{"cycles"},
		[]FrontierRow{{Name: "p", AxisValues: []string{"16", "extra"}, Objectives: []float64{1}}})
	if err == nil {
		t.Error("mismatched axis values: want error")
	}
}

// fmtFLimit is the magnitude below which fmtF may take its fast path.
const fmtFLimit = (1 << 53) / 1e6

func checkFmtF(t testing.TB, v float64) {
	if got, want := fmtF(v), strconv.FormatFloat(v, 'f', 6, 64); got != want {
		t.Fatalf("fmtF(%v) [bits %#x] = %q, strconv says %q", v, math.Float64bits(v), got, want)
	}
}

// TestFmtFMatchesStrconv holds fmtF's fast path to strconv's output on the
// values where it could go wrong: ties and near-ties at the sixth
// decimal, signed zeros and sub-micro negatives, the 2^53/1e6 boundary,
// and a seeded million values of four kinds.
func TestFmtFMatchesStrconv(t *testing.T) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), -1e-9, 5e-7, -5e-7, 1.5e-6, 2.5e-6, 9.9999995, -9.9999995,
		0.5, 1, 123.456789, 0.0000005000000000001,
		math.Nextafter(fmtFLimit, 0), fmtFLimit, math.Nextafter(fmtFLimit, math.Inf(1)),
		-math.Nextafter(fmtFLimit, 0), -fmtFLimit,
		1e300, -1e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		checkFmtF(t, v)
	}

	rng := rand.New(rand.NewPCG(20, 1))
	const perKind = 250_000
	for i := 0; i < perKind; i++ {
		// Random bit patterns: every exponent, NaN payloads, subnormals.
		checkFmtF(t, math.Float64frombits(rng.Uint64()))
		// Report-sized magnitudes, 1e-9 to 1e11.
		checkFmtF(t, (rng.Float64()-0.5)*math.Pow(10, float64(rng.IntN(21)-9)))
		// Ties k.5e-6 and their neighbours, where the fast path must yield.
		tie := (float64(rng.Int64N(1<<40)) + 0.5) / 1e6
		switch i % 3 {
		case 0:
			tie = math.Nextafter(tie, 0)
		case 1:
			tie = math.Nextafter(tie, math.Inf(1))
		}
		checkFmtF(t, tie)
		// Around the fast path's upper bound.
		checkFmtF(t, fmtFLimit*(1+(rng.Float64()-0.5)*1e-9))
	}
}

// FuzzFmtF explores fmtF against strconv over arbitrary bit patterns.
func FuzzFmtF(f *testing.F) {
	f.Add(math.Float64bits(9.9999995))
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFmtF(t, math.Float64frombits(bits))
	})
}
