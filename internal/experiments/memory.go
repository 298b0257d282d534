package experiments

import (
	"fmt"
	"io"

	"scalesim"
	"scalesim/internal/config"
	"scalesim/internal/topology"
)

// memoryConfig is the machine of the DRAM studies: an r×c array whose three
// scratchpads each hold 2·windowWords words — so the memory stage's stream
// window, half the ifmap scratchpad, is windowWords — in front of DDR4 with
// the given channels and per-channel queue depth, issuing up to maxReq
// 64-byte line requests per cycle.
func memoryConfig(df config.Dataflow, r, c, channels, queue, maxReq int, windowWords int64) scalesim.Config {
	cfg := scalesim.DefaultConfig()
	cfg.ArrayRows, cfg.ArrayCols = r, c
	cfg.Dataflow = df
	kb := int(windowWords * 8 / 1024)
	cfg.IfmapSRAMKB, cfg.FilterSRAMKB, cfg.OfmapSRAMKB = kb, kb, kb
	cfg.BandwidthWords = maxReq * 64 / cfg.WordBytes
	cfg.Memory = config.MemoryConfig{Enabled: true, Technology: "DDR4", Channels: channels,
		ReadQueueDepth: queue, WriteQueueDepth: queue}
	return cfg
}

// fig9 is the DRAM-channel study (paper Fig. 9): per-layer memory
// throughput of every ResNet-18 layer on a TPU-like 128×128
// weight-stationary core as the DDR4 channel count sweeps 1–8, one sweep
// point per channel count, each layer replayed against a fresh DRAM system.
func fig9(w, _ io.Writer) error {
	topo, channels := topology.ResNet18(), []int{1, 2, 4, 8}
	var points []scalesim.SweepPoint
	for _, ch := range channels {
		points = append(points, scalesim.SweepPoint{Name: fmt.Sprintf("fig9/%dch", ch),
			Config:   memoryConfig(config.WeightStationary, 128, 128, ch, 128, ch, 1<<18),
			Topology: topo})
	}
	results, err := sweep(points)
	if err != nil {
		return err
	}
	var rows [][]string
	for i, res := range results {
		for _, l := range res.Layers {
			rows = append(rows, []string{l.Layer.Name, itoa(channels[i]),
				f64(l.ThroughputMBps), i64(l.TotalCycles)})
		}
	}
	return writeCSV(w, []string{"layer", "channels", "throughput_MBps", "total_cycles"}, rows)
}

// fig10 is the request-queue study (paper Fig. 10): stall fraction and
// total cycles for the first six layers of several workloads on a 64×64
// core with eight DDR4 channels and eight line requests per cycle, at total
// request-queue capacities of 32, 128 and 512 entries shared across the
// channels (small per-channel queues throttle both the outstanding requests
// and the controller's row-hit reordering).
func fig10(w, _ io.Writer) error {
	const channels = 8
	queues := []int{32, 128, 512}
	var points []scalesim.SweepPoint
	var keys [][]string
	for _, name := range []string{"alexnet", "resnet18", "vit_small"} {
		topo, err := workload(name, 6)
		if err != nil {
			return err
		}
		for _, q := range queues {
			points = append(points, scalesim.SweepPoint{Name: fmt.Sprintf("fig10/%s/q%d", name, q),
				Config:   memoryConfig(config.WeightStationary, 64, 64, channels, q/channels, 8, 1<<16),
				Topology: topo})
			keys = append(keys, []string{name, itoa(q)})
		}
	}
	results, err := sweep(points)
	if err != nil {
		return err
	}
	for i, res := range results {
		s := res.Summary()
		keys[i] = append(keys[i], i64(s.TotalComputeCycles), i64(s.TotalStallCycles), i64(s.TotalCycles),
			f64(float64(s.TotalStallCycles)/float64(s.TotalCycles)))
	}
	return writeCSV(w, []string{"workload", "queue", "compute_cycles",
		"stall_cycles", "total_cycles", "stall_fraction"}, keys)
}

// dramDataflow is the §IX-B case study: WS vs OS on the six residual 3×3
// ResNet-18 layers on a 32×32 array in front of one DDR4 channel, with and
// without DRAM stalls. The note gives WS's advantage on compute-only cycles
// (the v2 view) and OS's on stall-inclusive cycles (the v3 view).
func dramDataflow(w, note io.Writer) error {
	topo := topology.ResNet18().Sub(1, 7)
	var points []scalesim.SweepPoint
	for _, df := range []config.Dataflow{config.WeightStationary, config.OutputStationary} {
		points = append(points, scalesim.SweepPoint{Name: "dram-dataflow/" + df.String(),
			Config:   memoryConfig(df, 32, 32, 1, 32, 1, 1<<14),
			Topology: topo})
	}
	results, err := sweep(points)
	if err != nil {
		return err
	}
	ws, os := results[0].Summary(), results[1].Summary()
	fmt.Fprintf(note, "dram-dataflow: WS compute advantage %.1f%%, OS total advantage %.1f%%\n",
		100*(float64(os.TotalComputeCycles-ws.TotalComputeCycles)/float64(os.TotalComputeCycles)),
		100*(float64(ws.TotalCycles-os.TotalCycles)/float64(ws.TotalCycles)))
	return writeCSV(w, []string{"dataflow", "compute_cycles", "total_cycles"}, [][]string{
		{"ws", i64(ws.TotalComputeCycles), i64(ws.TotalCycles)},
		{"os", i64(os.TotalComputeCycles), i64(os.TotalCycles)},
	})
}
