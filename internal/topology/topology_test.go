package topology

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseSparsity(t *testing.T) {
	cases := []struct {
		in   string
		want Sparsity
		err  bool
	}{
		{"2:4", Sparsity{2, 4}, false},
		{" 1 : 8 ", Sparsity{1, 8}, false},
		{"dense", Sparsity{}, false},
		{"", Sparsity{}, false},
		{"4:2", Sparsity{}, true},
		{"0:4", Sparsity{}, true},
		{"a:b", Sparsity{}, true},
		{"1:2:3", Sparsity{}, true},
	}
	for _, c := range cases {
		got, err := ParseSparsity(c.in)
		if (err != nil) != c.err {
			t.Errorf("%q: err=%v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("%q: got %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSparsityRatio(t *testing.T) {
	if r := (Sparsity{}).Ratio(); r != 1.0 {
		t.Errorf("dense ratio %f", r)
	}
	if r := (Sparsity{N: 1, M: 4}).Ratio(); r != 0.25 {
		t.Errorf("1:4 ratio %f", r)
	}
	if !(Sparsity{N: 4, M: 4}).Dense() {
		t.Error("4:4 should count as dense")
	}
}

func TestConvGEMMDims(t *testing.T) {
	l := Layer{Name: "c", Kind: Conv,
		IfmapH: 56, IfmapW: 56, FilterH: 3, FilterW: 3,
		Channels: 64, NumFilters: 128, Stride: 1}
	m, n, k := l.GEMMDims()
	if m != 54*54 || n != 128 || k != 3*3*64 {
		t.Errorf("got M=%d N=%d K=%d", m, n, k)
	}
	if l.MACs() != int64(m)*int64(n)*int64(k) {
		t.Errorf("MACs %d", l.MACs())
	}
}

func TestConvStride(t *testing.T) {
	l := Layer{Kind: Conv, IfmapH: 224, IfmapW: 224, FilterH: 7, FilterW: 7,
		Channels: 3, NumFilters: 64, Stride: 2}
	if h := l.OfmapH(); h != (224-7)/2+1 {
		t.Errorf("ofmap h %d", h)
	}
}

func TestLayerValidate(t *testing.T) {
	bad := []Layer{
		{Kind: Conv, IfmapH: 0, IfmapW: 8, FilterH: 1, FilterW: 1, Channels: 1, NumFilters: 1, Stride: 1},
		{Kind: Conv, IfmapH: 8, IfmapW: 8, FilterH: 9, FilterW: 1, Channels: 1, NumFilters: 1, Stride: 1},
		{Kind: Conv, IfmapH: 8, IfmapW: 8, FilterH: 1, FilterW: 1, Channels: 1, NumFilters: 1, Stride: 0},
		{Kind: GEMM, M: 0, N: 1, K: 1},
		{Kind: GEMM, M: 1, N: 1, K: 1, Sparsity: Sparsity{N: 5, M: 4}},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: invalid layer accepted: %+v", i, l)
		}
	}
}

func TestBuiltinModels(t *testing.T) {
	for _, name := range BuiltinNames() {
		topo, err := Builtin(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if topo.TotalMACs() <= 0 {
			t.Errorf("%s: no MACs", name)
		}
	}
	if _, err := Builtin("lenet-9000"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestResNet50Depth(t *testing.T) {
	topo := ResNet50()
	// 1 stem + (3+4+6+3) blocks × 3 convs + 4 projections + 1 FC = 54.
	if got := len(topo.Layers); got != 54 {
		t.Errorf("resnet50 has %d layers, want 54", got)
	}
}

func TestViTLayerStructure(t *testing.T) {
	topo := ViT(ViTBaseConfig())
	if len(topo.Layers) != 12*6 {
		t.Fatalf("vit_base has %d layers, want 72", len(topo.Layers))
	}
	// QKV projection of ViT-B: 197×2304 @ K=768.
	qkv := topo.Layers[0]
	if qkv.M != 197 || qkv.N != 3*768 || qkv.K != 768 {
		t.Errorf("QKV dims %d %d %d", qkv.M, qkv.N, qkv.K)
	}
}

func TestCSVRoundTripConv(t *testing.T) {
	orig := ResNet18()
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Layers) != len(orig.Layers) {
		t.Fatalf("got %d layers, want %d", len(parsed.Layers), len(orig.Layers))
	}
	for i := range orig.Layers {
		a, b := orig.Layers[i], parsed.Layers[i]
		am, an, ak := a.GEMMDims()
		bm, bn, bk := b.GEMMDims()
		if am != bm || an != bn || ak != bk {
			t.Errorf("layer %d dims changed: %d,%d,%d vs %d,%d,%d", i, am, an, ak, bm, bn, bk)
		}
	}
}

func TestCSVRoundTripGEMMWithSparsity(t *testing.T) {
	orig := &Topology{Name: "g", Layers: []Layer{
		{Name: "L0", Kind: GEMM, M: 10, N: 20, K: 30, Sparsity: Sparsity{2, 4}},
		{Name: "L1", Kind: GEMM, M: 5, N: 6, K: 7},
	}}
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Layers[0].Sparsity != (Sparsity{2, 4}) {
		t.Errorf("sparsity lost: %v", parsed.Layers[0].Sparsity)
	}
	if !parsed.Layers[1].Sparsity.Dense() {
		t.Errorf("dense layer gained sparsity %v", parsed.Layers[1].Sparsity)
	}
}

func TestParseCSVClassicFormat(t *testing.T) {
	src := `Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width, Channels, Num Filter, Strides,
Conv1, 224, 224, 7, 7, 3, 64, 2,
Conv2, 56, 56, 3, 3, 64, 64, 1,
`
	topo, err := ParseCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Layers) != 2 {
		t.Fatalf("got %d layers", len(topo.Layers))
	}
	if topo.Layers[0].Name != "Conv1" || topo.Layers[0].Stride != 2 {
		t.Errorf("layer 0 parsed wrong: %+v", topo.Layers[0])
	}
}

func TestParseCSVErrors(t *testing.T) {
	bad := []string{
		"",
		"Layer name, IFMAP Height\n",         // header only
		"Layer name, M, N, K\nL0, 1, 2\n",    // short row
		"Layer name, M, N, K\nL0, x, 2, 3\n", // non-numeric
		"Layer name, M, N, K\nL0, 1, 2, 3, 9:4\n", // bad sparsity
	}
	for i, src := range bad {
		if _, err := ParseCSV(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: bad csv accepted", i)
		}
	}
}

func TestSubAndWithSparsity(t *testing.T) {
	topo := AlexNet()
	sub := topo.Sub(1, 3)
	if len(sub.Layers) != 2 {
		t.Fatalf("sub has %d layers", len(sub.Layers))
	}
	sp := topo.WithSparsity(Sparsity{1, 4})
	for i := range sp.Layers {
		if sp.Layers[i].Sparsity != (Sparsity{1, 4}) {
			t.Errorf("layer %d not annotated", i)
		}
	}
	// Original untouched.
	for i := range topo.Layers {
		if !topo.Layers[i].Sparsity.Dense() {
			t.Error("WithSparsity mutated the receiver")
		}
	}
	// Out-of-range Sub clamps.
	if got := topo.Sub(-5, 1000); len(got.Layers) != len(topo.Layers) {
		t.Errorf("clamped sub has %d layers", len(got.Layers))
	}
}

func TestGEMMSweep(t *testing.T) {
	topo := GEMMSweep([]int{1, 2}, []int{3}, []int{4, 5})
	if len(topo.Layers) != 4 {
		t.Fatalf("got %d layers", len(topo.Layers))
	}
}

// FuzzParseCSV feeds arbitrary bytes to the topology CSV reader, whose
// layer names go on to name trace files: it must not panic, every error
// must carry the package prefix, and every accepted topology must pass
// Validate.
func FuzzParseCSV(f *testing.F) {
	var conv, gemm bytes.Buffer
	if err := AlexNet().WriteCSV(&conv); err != nil {
		f.Fatal(err)
	}
	if err := GEMMSweep([]int{64}, []int{48}, []int{96}).WriteCSV(&gemm); err != nil {
		f.Fatal(err)
	}
	f.Add(conv.String())
	f.Add(gemm.String())
	f.Add("Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width, Channels, Num Filter, Strides,\nConv1, 224, 224, 11, 11, 3, 96, 4, 2:4,\n")
	f.Add("Layer, M, N, K,\n.., 8, 8, 8,\n")
	f.Fuzz(func(t *testing.T, src string) {
		topo, err := ParseCSV(strings.NewReader(src))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "topology:") {
				t.Fatalf("error %q lacks the topology: prefix", err)
			}
			return
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("accepted an invalid topology: %v", err)
		}
	})
}
