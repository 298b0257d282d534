package server

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"scalesim"
	"scalesim/internal/config"
)

// configVariants returns configurations exercising every DTO section.
func configVariants() map[string]scalesim.Config {
	multi := scalesim.DefaultConfig()
	multi.MultiCore.Enabled = true
	multi.MultiCore.PartitionRows = 2
	multi.MultiCore.PartitionCols = 2
	multi.MultiCore.Strategy = config.SpatioTemporal1
	multi.MultiCore.Cores = []config.CoreSpec{
		{Rows: 16, Cols: 16, NoPHops: 1},
		{Rows: 32, Cols: 32},
	}
	multi.MultiCore.NonUniform = true
	multi.MultiCore.HopLatency = 3

	sparse := scalesim.TPUConfig()
	sparse.Sparsity.Enabled = true
	sparse.Sparsity.OptimizedMapping = true
	sparse.Sparsity.Format = config.CSR
	sparse.Sparsity.BlockSize = 4
	sparse.Sparsity.Seed = 7

	full := config.EyerissLike()
	full.Memory.Enabled = true
	full.Memory.Technology = "HBM2"
	full.Memory.Channels = 4
	full.Layout.Enabled = true
	full.Energy.Enabled = true
	full.Energy.IncludeDRAM = true

	return map[string]scalesim.Config{
		"default":   scalesim.DefaultConfig(),
		"tpu":       scalesim.TPUConfig(),
		"eyeriss":   config.EyerissLike(),
		"multicore": multi,
		"sparse":    sparse,
		"full":      full,
	}
}

// TestDTOConfigRoundTrip pins the configuration wire format: the goldens
// under testdata/ were rendered by the hand-written mirror type this
// package used to carry, and config.Config's own json tags must reproduce
// them byte for byte and decode them back to the identical configuration.
func TestDTOConfigRoundTrip(t *testing.T) {
	for name, cfg := range configVariants() {
		t.Run(name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "config_"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.MarshalIndent(cfg, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if raw = append(raw, '\n'); !bytes.Equal(raw, golden) {
				t.Errorf("wire format drifted from the golden:\n got %s\nwant %s", raw, golden)
			}
			got, err := DecodeConfig(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, cfg) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, cfg)
			}
		})
	}
}

// TestDTODecodeConfig covers preset resolution and field overrides.
func TestDTODecodeConfig(t *testing.T) {
	tests := []struct {
		name string
		raw  string
		want func(scalesim.Config) bool
	}{
		{
			name: "empty selects default",
			raw:  `{}`,
			want: func(c scalesim.Config) bool { return reflect.DeepEqual(c, scalesim.DefaultConfig()) },
		},
		{
			name: "tpu preset",
			raw:  `{"preset":"tpu"}`,
			want: func(c scalesim.Config) bool { return reflect.DeepEqual(c, scalesim.TPUConfig()) },
		},
		{
			name: "preset with override",
			raw:  `{"preset":"tpu","array_rows":64}`,
			want: func(c scalesim.Config) bool { return c.ArrayRows == 64 && c.ArrayCols == 128 },
		},
		{
			name: "enum aliases, null enum and empty core list",
			raw:  `{"dataflow":"Weight_Stationary","sparsity":{"format":null},"multi_core":{"strategy":"st2","cores":[]}}`,
			want: func(c scalesim.Config) bool {
				return c.Dataflow == config.WeightStationary && c.Sparsity.Format == config.BlockedELLPACK &&
					c.MultiCore.Strategy == config.SpatioTemporal2 && c.MultiCore.Cores == nil
			},
		},
		{
			name: "nested section override keeps siblings",
			raw:  `{"memory":{"enabled":true,"channels":4}}`,
			want: func(c scalesim.Config) bool {
				// Technology and queue depths inherit the default section.
				return c.Memory.Enabled && c.Memory.Channels == 4 &&
					c.Memory.Technology == "DDR4" && c.Memory.ReadQueueDepth == 128
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg, err := DecodeConfig(json.RawMessage(tt.raw))
			if err != nil {
				t.Fatal(err)
			}
			if !tt.want(cfg) {
				t.Errorf("decoded config %+v fails predicate", cfg)
			}
		})
	}
}

// TestDTODecodeConfigErrors proves unknown fields are rejected by name and
// internal validation errors pass through with their field names.
func TestDTODecodeConfigErrors(t *testing.T) {
	tests := []struct {
		name    string
		raw     string
		wantSub string
	}{
		{"unknown top-level field", `{"arry_rows":8}`, `"arry_rows"`},
		{"unknown nested field", `{"memory":{"chanels":2}}`, `"chanels"`},
		{"validation names field", `{"array_rows":-1}`, "ArrayRows"},
		{"bad preset", `{"preset":"gpu"}`, "preset"},
		{"bad dataflow lists valid values", `{"dataflow":"zigzag"}`, "valid: os, ws, is"},
		{"bad sparse format", `{"sparsity":{"format":"coo"}}`, "ellpack_block"},
		{"bad partition strategy", `{"multi_core":{"strategy":"diagonal"}}`, "spatiotemporal1"},
		{"bad dram tech at validate", `{"memory":{"enabled":true,"technology":"SRAM9000"}}`, "Memory.Technology"},
		{"enum as number names field", `{"dataflow":1}`, "config: Dataflow:"},
		{"wrong type names field", `{"array_rows":"8"}`, "array_rows"},
		{"removed l2 size", `{"multi_core":{"l2_size_kb":1}}`, `"l2_size_kb"`},
		{"removed energy technology", `{"energy":{"technology":"45nm"}}`, `"technology"`},
		{"removed core simd lanes", `{"multi_core":{"cores":[{"rows":8,"cols":8,"simd_lanes":4}]}}`, `"simd_lanes"`},
		{"energy without a clock", `{"energy":{"enabled":true,"frequency_mhz":0}}`, "Energy.FrequencyMHz"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := DecodeConfig(json.RawMessage(tt.raw))
			if err == nil {
				t.Fatalf("DecodeConfig(%s) succeeded, want error containing %q", tt.raw, tt.wantSub)
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not contain %q", err, tt.wantSub)
			}
		})
	}
}

// TestDTOTopologyRoundTrip proves explicit-layer topologies survive the
// JSON shape, including sparsity annotations.
func TestDTOTopologyRoundTrip(t *testing.T) {
	topo := &scalesim.Topology{
		Name: "mini",
		Layers: []scalesim.Layer{
			{Name: "conv1", Kind: scalesim.Conv, IfmapH: 14, IfmapW: 14,
				FilterH: 3, FilterW: 3, Channels: 8, NumFilters: 16, Stride: 1},
			{Name: "fc", Kind: scalesim.GEMM, M: 64, N: 32, K: 128,
				Sparsity: scalesim.Sparsity{N: 2, M: 4}},
		},
	}
	dto := TopologyToDTO(topo)
	raw, err := json.Marshal(dto)
	if err != nil {
		t.Fatal(err)
	}
	var back TopologyDTO
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, forced, err := back.ToTopology()
	if err != nil {
		t.Fatal(err)
	}
	if forced {
		t.Error("per-layer sparsity must not report a forced topology-wide annotation")
	}
	if !reflect.DeepEqual(got, topo) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, topo)
	}
}

// TestDTOTopologyErrors covers the rejection paths of topology decoding.
func TestDTOTopologyErrors(t *testing.T) {
	tests := []struct {
		name    string
		dto     TopologyDTO
		wantSub string
	}{
		{"empty", TopologyDTO{}, "builtin or layers"},
		{"both", TopologyDTO{Builtin: "alexnet", Layers: []LayerDTO{{Kind: "gemm", M: 1, N: 1, K: 1}}},
			"mutually exclusive"},
		{"unknown builtin", TopologyDTO{Builtin: "lenet9000"}, "lenet9000"},
		{"unknown kind", TopologyDTO{Layers: []LayerDTO{{Kind: "pool"}}}, `"pool"`},
		{"invalid layer named", TopologyDTO{Layers: []LayerDTO{
			{Name: "bad", Kind: "gemm", M: 0, N: 4, K: 4}}}, "bad"},
		{"bad forced sparsity", TopologyDTO{Builtin: "alexnet", Sparsity: "5:2"}, "5:2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := tt.dto.ToTopology()
			if err == nil {
				t.Fatalf("ToTopology succeeded, want error containing %q", tt.wantSub)
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not contain %q", err, tt.wantSub)
			}
		})
	}
}

// TestDTOTopologyForcedSparsity proves a topology-wide annotation flips the
// forced flag so handlers enable sparse modeling in the configuration.
func TestDTOTopologyForcedSparsity(t *testing.T) {
	dto := TopologyDTO{
		Layers:   []LayerDTO{{Name: "g", Kind: "gemm", M: 8, N: 8, K: 8}},
		Sparsity: "2:4",
	}
	topo, forced, err := dto.ToTopology()
	if err != nil {
		t.Fatal(err)
	}
	if !forced {
		t.Error("forced = false, want true for topology-wide 2:4")
	}
	if topo.Layers[0].Sparsity != (scalesim.Sparsity{N: 2, M: 4}) {
		t.Errorf("layer sparsity = %v, want 2:4", topo.Layers[0].Sparsity)
	}
}

// FuzzDecodeConfig feeds arbitrary bytes to the decoder every job
// endpoint runs on its "config" object. It must not panic, every error
// must carry the "config: " prefix, every accepted config must pass
// Validate, and json.Marshal of an accepted config must decode back to
// the same Config.
func FuzzDecodeConfig(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "config_*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed configs: %v", err)
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"preset":"tpu","memory":{"enabled":true,"channels":2}}`))
	f.Add([]byte(`{"multi_core":{"cores":[]}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		cfg, err := DecodeConfig(raw)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "config: ") {
				t.Fatalf("error %q lacks the config: prefix", err)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted config fails Validate: %v", err)
		}
		again, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("marshal accepted config: %v", err)
		}
		back, err := DecodeConfig(again)
		if err != nil {
			t.Fatalf("re-decode %s: %v", again, err)
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", back, cfg)
		}
	})
}

// FuzzBuildRun feeds arbitrary bodies to every job kind's validator.
// buildRun must never panic, and a body it accepts must yield a run
// closure and a deadline that is not negative. Seeds put each committed
// testdata config into a valid run, sweep and explore body.
func FuzzBuildRun(f *testing.F) {
	kinds := []string{"run", "sweep", "explore"}
	seeds, err := filepath.Glob(filepath.Join("testdata", "config_*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed configs: %v", err)
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		cfg := string(raw)
		f.Add(uint8(0), []byte(`{"config": `+cfg+`, "topology": {"builtin": "alexnet"}, "timeout_s": 2.5}`))
		f.Add(uint8(1), []byte(`{"points": [{"name": "p", "config": `+cfg+`, "topology": {"builtin": "resnet18"}}], "parallelism": 2}`))
		f.Add(uint8(2), []byte(`{"config": `+cfg+`, "topology": {"name": "t", "layers": [{"name": "g", "kind": "gemm", "m": 8, "n": 8, "k": 8}]}, `+
			`"space": "array=8..16:pow2;dataflow=os,ws", "objectives": "cycles,energy", "strategy": "random", "fidelity": "analytical"}`))
	}
	f.Add(uint8(0), []byte(`{"topology": {"builtin": "alexnet", "sparsity": "2:4"}, "timeout_s": 9.3e9}`))
	f.Add(uint8(2), []byte(`{"topology": {"builtin": "alexnet"}, "space": "array=8..16:pow2", "promote_top_k": -1}`))
	s := New(Options{Shards: 1, JobTimeout: time.Minute})
	f.Cleanup(func() { s.Drain(context.Background()) }) //nolint:errcheck
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		run, timeout, err := s.buildRun(kinds[int(kind)%len(kinds)], body)
		if err != nil {
			return
		}
		if run == nil || timeout < 0 {
			t.Fatalf("accepted body yields closure %v and timeout %v", run != nil, timeout)
		}
	})
}
