package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"scalesim"
	"scalesim/internal/topology"
)

// inputs generates every workload's inputs from the seed; the simulator
// only ever sees what these methods return. Seeds vary what the system's
// behaviour depends on without varying how much work there is: the energy
// clock (so no two seeds share a cache fingerprint), the order of layers,
// points and jobs, and which shapes the serve mix treats as novel. Seed 1
// keeps the canonical 1000 MHz clock the committed goldens were taken at.
type inputs struct {
	seed    uint64
	scale   float64
	rng     *rand.Rand
	freqMHz float64
}

func newInputs(seed uint64, scale float64) *inputs {
	in := &inputs{seed: seed, scale: scale, rng: rand.New(rand.NewPCG(seed, 0x5ca1e51)), freqMHz: 1000}
	if seed != 1 {
		in.freqMHz = float64(800 + in.rng.IntN(400))
	}
	return in
}

// dim scales a spatial or sequence dimension by -scale, never below floor.
// Scale 1 (the contract's setting) leaves every shape as declared; the
// smoke test shrinks shapes so all workloads fit in seconds.
func (in *inputs) dim(x, floor int) int {
	return max(floor, int(math.Round(float64(x)*in.scale)))
}

// config is the default configuration at this seed's clock.
func (in *inputs) config() scalesim.Config {
	cfg := scalesim.DefaultConfig()
	cfg.Energy.FrequencyMHz = in.freqMHz
	return cfg
}

// shuffled returns the topology with its layers in seed order. Layers are
// independent, so totals are unchanged; report rows move.
func (in *inputs) shuffled(t *scalesim.Topology) *scalesim.Topology {
	out := &scalesim.Topology{Name: t.Name, Layers: append([]scalesim.Layer(nil), t.Layers...)}
	in.rng.Shuffle(len(out.Layers), func(i, j int) { out.Layers[i], out.Layers[j] = out.Layers[j], out.Layers[i] })
	return out
}

// scaledConvs shrinks the spatial extent of every convolution by -scale.
func (in *inputs) scaledConvs(t *scalesim.Topology) *scalesim.Topology {
	for i := range t.Layers {
		if l := &t.Layers[i]; l.Kind == scalesim.Conv {
			l.IfmapH, l.IfmapW = in.dim(l.IfmapH, l.FilterH), in.dim(l.IfmapW, l.FilterW)
		}
	}
	return t
}

// vitBlock is one ViT-base encoder block (vit_base layers 0-5).
func (in *inputs) vitBlock() *scalesim.Topology {
	hidden := 12 * in.dim(64, 1)
	return in.shuffled(topology.ViT(topology.ViTConfig{Name: "vit_base",
		SeqLen: in.dim(197, 4), Hidden: hidden, Heads: 12, FFN: 4 * hidden, Layers: 1}))
}

// distinctShapes keeps the first layer of every distinct shape. An
// uncached run simulates repeated shapes again with identical results, so
// the repeats add run time but exercise nothing new.
func distinctShapes(t *scalesim.Topology) *scalesim.Topology {
	out := &scalesim.Topology{Name: t.Name + "_distinct"}
	seen := map[scalesim.Layer]bool{}
	for _, l := range t.Layers {
		key := l
		key.Name = ""
		if !seen[key] {
			seen[key] = true
			out.Layers = append(out.Layers, l)
		}
	}
	return out
}

// coldPoint is one uncached Run of a cold workload.
type coldPoint struct {
	name string
	cfg  scalesim.Config
	topo *scalesim.Topology
}

// eventColdPoints is the paper's Table V experiment: the ViT-base block
// output-stationary on 32x32, 64x64 and 128x128 arrays against one DDR4
// channel, plus ResNet-18 weight-stationary on 32x32 against four HBM2
// channels, with memory, layout and energy models on.
func (in *inputs) eventColdPoints() []coldPoint {
	vit := in.vitBlock()
	var pts []coldPoint
	for _, arr := range []int{32, 64, 128} {
		cfg := in.config()
		cfg.ArrayRows, cfg.ArrayCols = arr, arr
		cfg.Dataflow = scalesim.OutputStationary
		cfg.Memory.Enabled, cfg.Layout.Enabled, cfg.Energy.Enabled = true, true, true
		cfg.RunName = fmt.Sprintf("vit_base_%dx%d", arr, arr)
		pts = append(pts, coldPoint{name: cfg.RunName, cfg: cfg, topo: vit})
	}
	cfg := in.config()
	cfg.Dataflow = scalesim.WeightStationary
	cfg.Memory.Enabled, cfg.Layout.Enabled, cfg.Energy.Enabled = true, true, true
	cfg.Memory.Technology, cfg.Memory.Channels = "HBM2", 4
	cfg.RunName = "resnet18_ws_hbm2x4"
	pts = append(pts, coldPoint{name: cfg.RunName, cfg: cfg,
		topo: in.shuffled(in.scaledConvs(topology.ResNet18()))})
	in.rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// sparseColdPoints is ResNet-18 with 2:4 sparsity on every layer, memory,
// layout and energy on. The contract's time cap keeps only the 12 distinct
// layer shapes of the 21 layers (see distinctShapes).
func (in *inputs) sparseColdPoints() []coldPoint {
	cfg := in.config()
	cfg.Sparsity.Enabled = true
	cfg.Memory.Enabled, cfg.Layout.Enabled, cfg.Energy.Enabled = true, true, true
	cfg.RunName = "resnet18_2to4"
	topo := distinctShapes(in.scaledConvs(topology.ResNet18())).WithSparsity(scalesim.Sparsity{N: 2, M: 4})
	return []coldPoint{{name: cfg.RunName, cfg: cfg, topo: in.shuffled(topo)}}
}

// sweepPoints is the 16-point design sweep: ResNet-50 on arrays
// {16,32,64,128} x {os,ws,is} with layout and energy on and memory off,
// plus four 2x2 multi-core points.
func (in *inputs) sweepPoints() []scalesim.SweepPoint {
	topo := in.scaledConvs(topology.ResNet50())
	var pts []scalesim.SweepPoint
	for _, arr := range []int{16, 32, 64, 128} {
		for _, df := range []scalesim.Dataflow{scalesim.OutputStationary, scalesim.WeightStationary, scalesim.InputStationary} {
			cfg := in.config()
			cfg.ArrayRows, cfg.ArrayCols, cfg.Dataflow = arr, arr, df
			cfg.Layout.Enabled, cfg.Energy.Enabled = true, true
			cfg.RunName = fmt.Sprintf("resnet50_%d_%s", arr, df)
			pts = append(pts, scalesim.SweepPoint{Name: cfg.RunName, Config: cfg, Topology: topo})
		}
		cfg := in.config()
		cfg.ArrayRows, cfg.ArrayCols = arr, arr
		cfg.Layout.Enabled, cfg.Energy.Enabled = true, true
		cfg.MultiCore.Enabled, cfg.MultiCore.PartitionRows, cfg.MultiCore.PartitionCols = true, 2, 2
		cfg.RunName = fmt.Sprintf("resnet50_%d_2x2", arr)
		pts = append(pts, scalesim.SweepPoint{Name: cfg.RunName, Config: cfg, Topology: topo})
	}
	in.rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// exploreInputs is the screening search: a rows x cols x bandwidth grid
// over a 2-GEMM topology with memory and energy on. Seeds shift the
// bandwidth range, which the analytical screen's cost does not depend on.
func (in *inputs) exploreInputs() (scalesim.Config, *scalesim.Topology, scalesim.Space, error) {
	cfg := in.config()
	cfg.Memory.Enabled, cfg.Energy.Enabled = true, true
	topo := &scalesim.Topology{Name: "screen_gemm", Layers: []scalesim.Layer{
		{Name: "fc1", Kind: scalesim.GEMM, M: 128, N: 128, K: 256},
		{Name: "fc2", Kind: scalesim.GEMM, M: 128, N: 64, K: 128},
	}}
	bw := 1
	if in.seed != 1 {
		bw += in.rng.IntN(3)
	}
	side := in.dim(50, 3)
	space, err := scalesim.ParseSpace(fmt.Sprintf("array_rows=4..%d; array_cols=4..%d; bandwidth=%d..%d",
		3+side, 3+side, bw, bw+in.dim(10, 2)-1))
	return cfg, topo, space, err
}

// serveJob is one request of the serve mix.
type serveJob struct {
	body []byte
	// shape identifies the request body: 0 is the repeated base
	// configuration (a cache hit once warm), anything else a novel array
	// shape (a miss).
	shape int
}

// serveMix returns the request generator of the serve workload: an 8-layer
// mini GEMM topology with memory and energy on, where four of every five
// consecutive jobs repeat the base configuration and one, at a seeded
// position, asks for an array shape drawn from a seeded cycle of 4096
// shapes - 8 layers each, far more than the cache's 4096 entries hold, so a
// recurring shape has been evicted and misses. The share of misses is exact
// rather than sampled so that every seed does the same amount of work.
func (in *inputs) serveMix() func() serveJob {
	var layers []string
	for i := 0; i < 8; i++ {
		layers = append(layers, fmt.Sprintf(`{"name":"g%d","kind":"gemm","m":32,"n":%d,"k":64}`, i, 32+16*i))
	}
	body := func(rows, cols int) []byte {
		return []byte(fmt.Sprintf(`{"config":{"array_rows":%d,"array_cols":%d,"memory":{"enabled":true},"energy":{"enabled":true,"frequency_mhz":%g}},"topology":{"name":"mini_gemm","layers":[%s]}}`,
			rows, cols, in.freqMHz, strings.Join(layers, ",")))
	}
	base := body(32, 32)
	shapes := in.rng.Perm(64 * 64)
	drawn, novelAt, next := 0, 0, 0
	return func() serveJob {
		if drawn%5 == 0 {
			novelAt = in.rng.IntN(5)
		}
		drawn++
		if (drawn-1)%5 != novelAt {
			return serveJob{body: base}
		}
		s := shapes[next%len(shapes)]
		next++
		rows, cols := 16+s/64, 16+s%64
		if rows == 32 && cols == 32 {
			cols = 80 // the base shape must stay the only repeated one
		}
		return serveJob{body: body(rows, cols), shape: 1 + s}
	}
}
