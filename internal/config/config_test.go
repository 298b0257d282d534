package config

import (
	"encoding"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scalesim/internal/dram"
)

// TestDRAMTechnologiesMatchMemoryModel pins the contract that validation
// and the memory model agree on technology names (resolution is delegated
// to internal/dram; this guards against a separate list ever coming back):
// every name config accepts must resolve in internal/dram, and every dram
// preset must validate here.
func TestDRAMTechnologiesMatchMemoryModel(t *testing.T) {
	for _, name := range DRAMTechnologies() {
		if _, err := dram.TechByName(name); err != nil {
			t.Errorf("config accepts %q but the memory model rejects it: %v", name, err)
		}
	}
	for _, name := range dram.TechNames() {
		if _, err := ParseDRAMTech(name); err != nil {
			t.Errorf("memory model offers %q but config rejects it: %v", name, err)
		}
	}
}

func TestDefaultValidates(t *testing.T) {
	for name, cfg := range map[string]Config{
		"default": Default(), "tpu": TPUv2Like(), "eyeriss": EyerissLike(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestPreset pins the one preset table behind the CLI's -preset flag and
// the server's "preset" field: names are trimmed and case-folded, and an
// unknown name lists the valid ones.
func TestPreset(t *testing.T) {
	for in, want := range map[string]Config{
		"": Default(), "default": Default(), " TPU ": TPUv2Like(), "Eyeriss": EyerissLike(),
	} {
		got, err := Preset(in)
		if err != nil || got.RunName != want.RunName || got.ArrayRows != want.ArrayRows {
			t.Errorf("Preset(%q) = %s %dx%d, %v; want %s", in, got.RunName, got.ArrayRows, got.ArrayCols, err, want.RunName)
		}
	}
	_, err := Preset("gpu")
	if err == nil || !strings.Contains(err.Error(), `"gpu" (valid: default, tpu, eyeriss)`) {
		t.Errorf("Preset(gpu) error = %v, want the valid names listed", err)
	}
}

func TestParseDataflow(t *testing.T) {
	for in, want := range map[string]Dataflow{
		"os": OutputStationary, "WS": WeightStationary, "Is": InputStationary,
		"output_stationary": OutputStationary,
	} {
		got, err := ParseDataflow(in)
		if err != nil || got != want {
			t.Errorf("%q: got %v, %v", in, got, err)
		}
	}
	if _, err := ParseDataflow("rs"); err == nil {
		t.Error("row stationary accepted")
	}
}

func TestParseINIFull(t *testing.T) {
	src := `
# SCALE-Sim v3 configuration
[general]
run_name = my_run

[architecture_presets]
ArrayHeight : 64
ArrayWidth  : 32
IfmapSramSzkB : 256
FilterSramSzkB : 256
OfmapSramSzkB : 128
Dataflow : ws
Bandwidth : 20

[sparsity]
SparsitySupport : true
OptimizedMapping : true
SparseRep : ellpack_block
BlockSize : 8

[memory]
enabled = true
technology = HBM2
channels = 4
read_queue_depth = 64
write_queue_depth = 32

[layout]
enabled = true
banks = 16
ports_per_bank = 2
on_chip_bandwidth = 256

[energy]
enabled = true
clock_gating = false
row_size = 32
bank_size = 8
frequency_mhz = 940

[multicore]
enabled = true
strategy = spatiotemporal1
pr = 4
pc = 2
`
	cfg, err := ParseINI(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RunName != "my_run" || cfg.ArrayRows != 64 || cfg.ArrayCols != 32 {
		t.Errorf("general/arch wrong: %+v", cfg)
	}
	if cfg.Dataflow != WeightStationary || cfg.BandwidthWords != 20 {
		t.Errorf("dataflow/bandwidth wrong")
	}
	if !cfg.Sparsity.Enabled || !cfg.Sparsity.OptimizedMapping || cfg.Sparsity.BlockSize != 8 {
		t.Errorf("sparsity wrong: %+v", cfg.Sparsity)
	}
	if cfg.Memory.Technology != "HBM2" || cfg.Memory.Channels != 4 ||
		cfg.Memory.ReadQueueDepth != 64 || cfg.Memory.WriteQueueDepth != 32 {
		t.Errorf("memory wrong: %+v", cfg.Memory)
	}
	if cfg.Layout.Banks != 16 || cfg.Layout.OnChipBandwidth != 256 {
		t.Errorf("layout wrong: %+v", cfg.Layout)
	}
	if cfg.Energy.ClockGating || cfg.Energy.RowSize != 32 || cfg.Energy.FrequencyMHz != 940 {
		t.Errorf("energy wrong: %+v", cfg.Energy)
	}
	if cfg.MultiCore.Strategy != SpatioTemporal1 ||
		cfg.MultiCore.PartitionRows != 4 || cfg.MultiCore.PartitionCols != 2 {
		t.Errorf("multicore wrong: %+v", cfg.MultiCore)
	}
	if cfg.NumCores() != 8 {
		t.Errorf("NumCores %d, want 8", cfg.NumCores())
	}
}

func TestParseINIHeterogeneousCores(t *testing.T) {
	src := `
[multicore]
enabled = true
cores = 32x32, 16x16/hops=2, 64x64
`
	cfg, err := ParseINI(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	cores := cfg.MultiCore.Cores
	if len(cores) != 3 {
		t.Fatalf("got %d cores", len(cores))
	}
	if cores[0] != (CoreSpec{Rows: 32, Cols: 32}) {
		t.Errorf("core0 %+v", cores[0])
	}
	if cores[1] != (CoreSpec{Rows: 16, Cols: 16, NoPHops: 2}) {
		t.Errorf("core1 %+v", cores[1])
	}
	if cfg.NumCores() != 3 {
		t.Errorf("NumCores %d", cfg.NumCores())
	}
	if got, want := cfg.PEs(), int64(32*32+16*16+64*64); got != want {
		t.Errorf("PEs %d, want %d", got, want)
	}
}

func TestParseINIRejectsUnknown(t *testing.T) {
	bad := []string{
		"[architecture_presets]\nArrayDepth : 3\n",
		"[nonsense]\nkey = 1\n",
		"[architecture_presets]\nArrayHeight : many\n",
		"no_equals_here\n",
		"[sparsity]\nSparsitySupport = maybe\n",
		"[multicore]\ncores = 32x32/simd=8\n",
	}
	for i, src := range bad {
		if _, err := ParseINI(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted: %q", i, src)
		}
	}
	// [general] and [architecture_presets] share the top-level keys.
	if cfg, err := ParseINI(strings.NewReader("[general]\nArrayHeight: 8\n")); err != nil || cfg.ArrayRows != 8 {
		t.Errorf("[general] ArrayHeight: 8 gave ArrayRows %d, %v", cfg.ArrayRows, err)
	}
}

// FuzzParseINI feeds arbitrary bytes to the reflection-driven .cfg reader:
// it must not panic, every error must carry the package prefix, and every
// accepted input must yield a valid Config.
func FuzzParseINI(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		cfg, err := ParseINI(strings.NewReader(src))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "config:") {
				t.Fatalf("error %q lacks the config: prefix", err)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted an invalid config: %v", err)
		}
	})
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mut := []func(*Config){
		func(c *Config) { c.ArrayRows = 0 },
		func(c *Config) { c.BandwidthWords = 0 },
		func(c *Config) { c.WordBytes = -1 },
		func(c *Config) { c.Memory.Enabled = true; c.Memory.Channels = 0 },
		func(c *Config) { c.Layout.Enabled = true; c.Layout.Banks = 0 },
		func(c *Config) {
			c.Sparsity.Enabled = true
			c.Sparsity.OptimizedMapping = true
			c.Sparsity.BlockSize = 0
		},
		func(c *Config) {
			c.MultiCore.Enabled = true
			c.MultiCore.Cores = []CoreSpec{{Rows: 0, Cols: 4}}
		},
	}
	for i, f := range mut {
		cfg := Default()
		f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestValidateNamesFieldAndValue pins the error-message contract the
// design-space explorer relies on: every Validate error names the
// offending field and the value it carried.
func TestValidateNamesFieldAndValue(t *testing.T) {
	cases := []struct {
		name     string
		mut      func(*Config)
		wantSubs []string
	}{
		{"array rows", func(c *Config) { c.ArrayRows = -3 }, []string{"ArrayRows", "-3"}},
		{"array cols", func(c *Config) { c.ArrayCols = 0 }, []string{"ArrayCols", "0"}},
		{"ifmap sram", func(c *Config) { c.IfmapSRAMKB = -1 }, []string{"IfmapSRAMKB", "-1"}},
		{"filter sram", func(c *Config) { c.FilterSRAMKB = -2 }, []string{"FilterSRAMKB", "-2"}},
		{"ofmap sram", func(c *Config) { c.OfmapSRAMKB = -4 }, []string{"OfmapSRAMKB", "-4"}},
		{"bandwidth", func(c *Config) { c.BandwidthWords = 0 }, []string{"BandwidthWords", "0"}},
		{"word bytes", func(c *Config) { c.WordBytes = -8 }, []string{"WordBytes", "-8"}},
		{"dataflow", func(c *Config) { c.Dataflow = Dataflow(7) }, []string{"Dataflow", "7"}},
		{"sparsity block", func(c *Config) {
			c.Sparsity.Enabled = true
			c.Sparsity.BlockSize = -4
		}, []string{"Sparsity.BlockSize", "-4"}},
		{"dram tech", func(c *Config) {
			c.Memory.Enabled = true
			c.Memory.Technology = "SDRAM-66"
		}, []string{"Memory.Technology", "SDRAM-66", "DDR4"}},
		{"dram channels", func(c *Config) {
			c.Memory.Enabled = true
			c.Memory.Channels = -2
		}, []string{"Memory.Channels", "-2"}},
		{"read queue", func(c *Config) {
			c.Memory.Enabled = true
			c.Memory.ReadQueueDepth = 0
		}, []string{"Memory.ReadQueueDepth", "0"}},
		{"write queue", func(c *Config) {
			c.Memory.Enabled = true
			c.Memory.WriteQueueDepth = -1
		}, []string{"Memory.WriteQueueDepth", "-1"}},
		{"layout banks", func(c *Config) {
			c.Layout.Enabled = true
			c.Layout.Banks = 0
		}, []string{"Layout.Banks", "0"}},
		{"layout ports", func(c *Config) {
			c.Layout.Enabled = true
			c.Layout.PortsPerBank = -1
		}, []string{"Layout.PortsPerBank", "-1"}},
		{"layout bandwidth", func(c *Config) {
			c.Layout.Enabled = true
			c.Layout.OnChipBandwidth = 0
		}, []string{"Layout.OnChipBandwidth", "0"}},
		{"partition rows", func(c *Config) {
			c.MultiCore.Enabled = true
			c.MultiCore.PartitionRows = -1
		}, []string{"MultiCore.PartitionRows", "-1"}},
		{"core shape", func(c *Config) {
			c.MultiCore.Enabled = true
			c.MultiCore.Cores = []CoreSpec{{Rows: 16, Cols: 16}, {Rows: 0, Cols: 4}}
		}, []string{"MultiCore.Cores[1]", "0x4"}},
		{"energy frequency", func(c *Config) {
			c.Energy.Enabled = true
			c.Energy.FrequencyMHz = 0
		}, []string{"Energy.FrequencyMHz", "0"}},
		{"partition strategy", func(c *Config) {
			c.MultiCore.Enabled = true
			c.MultiCore.Strategy = PartitionStrategy(7)
		}, []string{"MultiCore.Strategy", "7"}},
		{"hop latency", func(c *Config) {
			c.MultiCore.Enabled = true
			c.MultiCore.HopLatency = -5
		}, []string{"MultiCore.HopLatency", "-5"}},
		{"core hops", func(c *Config) {
			c.MultiCore.Enabled = true
			c.MultiCore.Cores = []CoreSpec{{Rows: 16, Cols: 16, NoPHops: -2}}
		}, []string{"MultiCore.Cores[0].NoPHops", "-2"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Default()
			c.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("want error")
			}
			for _, sub := range c.wantSubs {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("error %q does not mention %q", err, sub)
				}
			}
		})
	}
}

func TestParseDRAMTech(t *testing.T) {
	for in, want := range map[string]string{
		"":          "DDR4",
		"ddr4":      "DDR4",
		"DDR4-2400": "DDR4",
		"hbm":       "HBM2",
		"HBM2_2000": "HBM2",
		"lpddr4":    "LPDDR4",
		"GDDR5":     "GDDR5",
		"ddr3_1600": "DDR3",
	} {
		got, err := ParseDRAMTech(in)
		if err != nil || got != want {
			t.Errorf("ParseDRAMTech(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	_, err := ParseDRAMTech("SDRAM-66")
	if err == nil {
		t.Fatal("unknown technology accepted")
	}
	for _, sub := range []string{"Memory.Technology", "SDRAM-66", "DDR3", "HBM2"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("error %q does not mention %q", err, sub)
		}
	}
	// Every canonical name must round-trip.
	for _, name := range DRAMTechnologies() {
		if got, err := ParseDRAMTech(name); err != nil || got != name {
			t.Errorf("canonical %q: %q, %v", name, got, err)
		}
	}
}

// TestParseErrorsNameFieldAndValue does the same for the enum parsers.
func TestParseErrorsNameFieldAndValue(t *testing.T) {
	if _, err := ParseDataflow("diagonal"); err == nil ||
		!strings.Contains(err.Error(), "Dataflow") ||
		!strings.Contains(err.Error(), "diagonal") ||
		!strings.Contains(err.Error(), "os, ws, is") {
		t.Errorf("dataflow error: %v", err)
	}
	if _, err := ParseSparseFormat("coo"); err == nil ||
		!strings.Contains(err.Error(), "SparseRep") ||
		!strings.Contains(err.Error(), "coo") ||
		!strings.Contains(err.Error(), "csr") {
		t.Errorf("sparse format error: %v", err)
	}
	if _, err := ParsePartitionStrategy("temporal"); err == nil ||
		!strings.Contains(err.Error(), "MultiCore.Strategy") ||
		!strings.Contains(err.Error(), "temporal") ||
		!strings.Contains(err.Error(), "spatial") {
		t.Errorf("partition strategy error: %v", err)
	}
}

func TestSRAMWords(t *testing.T) {
	cfg := Default()
	cfg.IfmapSRAMKB = 4
	cfg.WordBytes = 4
	i, _, _ := cfg.SRAMWords()
	if i != 1024 {
		t.Errorf("4 kB at 4 B/word = %d words, want 1024", i)
	}
}

func TestPEsHomogeneousSynthesis(t *testing.T) {
	cfg := Default()
	cfg.MultiCore.Enabled = true
	cfg.MultiCore.PartitionRows = 2
	cfg.MultiCore.PartitionCols = 3
	// Six cores, each inheriting the top-level array shape.
	if got, want := cfg.PEs(), int64(6*cfg.ArrayRows*cfg.ArrayCols); got != want {
		t.Errorf("PEs %d, want %d", got, want)
	}
	cfg.MultiCore.Enabled = false
	if got, want := cfg.PEs(), int64(cfg.ArrayRows*cfg.ArrayCols); got != want {
		t.Errorf("single core: PEs %d, want %d", got, want)
	}
}

func TestPartitionStrategyParse(t *testing.T) {
	for in, want := range map[string]PartitionStrategy{
		"spatial": SpatialPartition, "st1": SpatioTemporal1,
		"spatiotemporal2": SpatioTemporal2,
	} {
		got, err := ParsePartitionStrategy(in)
		if err != nil || got != want {
			t.Errorf("%q: %v %v", in, got, err)
		}
	}
	if _, err := ParsePartitionStrategy("temporal"); err == nil {
		t.Error("bad strategy accepted")
	}
}

// TestJSONTagsCoverConfig is the nudge the job server's hand-written mirror
// type used to give at compile time: Config's json tags are the request
// schema, so every (nested) field needs one and no two in a struct may share
// a name.
func TestJSONTagsCoverConfig(t *testing.T) {
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		seen := map[string]string{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" || name == "-" {
				t.Errorf("%s.%s has no json tag", typ.Name(), f.Name)
			}
			if prev, dup := seen[name]; dup {
				t.Errorf("%s.%s and %s.%s share the json name %q", typ.Name(), prev, typ.Name(), f.Name, name)
			}
			seen[name] = f.Name
			ft := f.Type
			if ft.Kind() == reflect.Slice {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				walk(ft)
			}
		}
	}
	walk(reflect.TypeOf(Config{}))
}

// TestINIKeysCoverConfig does the same for the .cfg reader, whose key table
// is those tags: every leaf of Config must round-trip through ParseINI keyed
// by its json name and again by its ini spelling, and no two fields of one
// section may share a canonical key.
func TestINIKeysCoverConfig(t *testing.T) {
	want := Config{
		RunName: "cover", ArrayRows: 48, ArrayCols: 24,
		IfmapSRAMKB: 100, FilterSRAMKB: 200, OfmapSRAMKB: 300,
		Dataflow: InputStationary, BandwidthWords: 7, WordBytes: 2,
		Sparsity: SparsityConfig{Enabled: true, OptimizedMapping: true, Format: CSC, BlockSize: 8, Seed: 1 << 40},
		Memory:   MemoryConfig{Enabled: true, Technology: "HBM2", Channels: 4, ReadQueueDepth: 16, WriteQueueDepth: 8},
		Layout:   LayoutConfig{Enabled: true, Banks: 16, PortsPerBank: 3, OnChipBandwidth: 64},
		Energy: EnergyConfig{Enabled: true, ClockGating: false,
			RowSize: 8, BankSize: 2, FrequencyMHz: 940.5, IncludeDRAM: true},
		MultiCore: MultiCoreConfig{Enabled: true, PartitionRows: 2, PartitionCols: 3, Strategy: SpatioTemporal2,
			NonUniform: true, HopLatency: 5, Cores: []CoreSpec{
				{Rows: 32, Cols: 16, NoPHops: 1},
				{Rows: 8, Cols: 64, NoPHops: 2},
			}},
	}
	// line renders one leaf, checking first that it differs from Default
	// (a key that sets nothing would otherwise round-trip).
	line := func(f reflect.StructField, v, def reflect.Value, ini bool) string {
		if reflect.DeepEqual(v.Interface(), def.Interface()) {
			t.Errorf("%s is left at its default; give it another value", f.Name)
		}
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if spelling := f.Tag.Get("ini"); ini && spelling != "" {
			key = spelling
		}
		val := fmt.Sprint(v.Interface())
		if cores, ok := v.Interface().([]CoreSpec); ok {
			items := make([]string, len(cores))
			for i, c := range cores {
				items[i] = fmt.Sprintf("%dx%d/hops=%d", c.Rows, c.Cols, c.NoPHops)
			}
			val = strings.Join(items, ", ")
		}
		return key + " = " + val + "\n"
	}
	for _, ini := range []bool{false, true} {
		// Sections first, top-level fields last under one of their
		// equivalent headers.
		var sections, top strings.Builder
		v, def := reflect.ValueOf(want), reflect.ValueOf(Default())
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Type.Kind() != reflect.Struct {
				top.WriteString(line(f, v.Field(i), def.Field(i), ini))
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			fmt.Fprintf(&sections, "[%s]\n", name)
			for j := 0; j < f.Type.NumField(); j++ {
				sections.WriteString(line(f.Type.Field(j), v.Field(i).Field(j), def.Field(i).Field(j), ini))
			}
		}
		header := "[general]\n"
		if ini {
			header = "[architecture_presets]\n"
		}
		src := sections.String() + header + top.String()
		got, err := ParseINI(strings.NewReader(src))
		if err != nil {
			t.Fatalf("ini=%v: %v\n%s", ini, err, src)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ini=%v: round trip differs\n got %+v\nwant %+v\n%s", ini, got, want, src)
		}
	}
	structs := []reflect.Type{reflect.TypeOf(Config{})}
	for i := 0; i < structs[0].NumField(); i++ {
		if ft := structs[0].Field(i).Type; ft.Kind() == reflect.Struct {
			structs = append(structs, ft)
		}
	}
	for _, typ := range structs {
		seen := map[string]string{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			for _, k := range []string{canonKey(name), canonKey(f.Tag.Get("ini"))} {
				if prev, dup := seen[k]; k != "" && dup && prev != f.Name {
					t.Errorf("%s.%s and %s.%s share the .cfg key %q", typ.Name(), prev, typ.Name(), f.Name, k)
				}
				seen[k] = f.Name
			}
		}
	}
}

// TestEnumsStayPlainToGob guards the disk store: multicore.Partition.Strategy
// sits inside the gob-encoded layer results as an integer, and gob switches a
// type to its own encoding when it implements GobEncoder or BinaryMarshaler
// (TextMarshaler is reserved for the same, golang.org/issue/6760) — which
// would change the payload format under stores already written. The enums'
// string form is json.Marshaler only.
func TestEnumsStayPlainToGob(t *testing.T) {
	for _, v := range []any{new(Dataflow), new(SparseFormat), new(PartitionStrategy)} {
		_, text := v.(encoding.TextMarshaler)
		_, untext := v.(encoding.TextUnmarshaler)
		_, binary := v.(encoding.BinaryMarshaler)
		_, gobEnc := v.(gob.GobEncoder)
		if text || untext || binary || gobEnc {
			t.Errorf("%T implements a marshaler encoding/gob honours (text=%v/%v binary=%v gob=%v)", v, text, untext, binary, gobEnc)
		}
	}
}
