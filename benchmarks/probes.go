package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"scalesim"
	"scalesim/internal/config"
	"scalesim/internal/coordinator"
	"scalesim/internal/diskstore"
	"scalesim/internal/dram"
	"scalesim/internal/energy"
	"scalesim/internal/explore"
	"scalesim/internal/layout"
	"scalesim/internal/multicore"
	"scalesim/internal/server"
	"scalesim/internal/simcache"
	"scalesim/internal/sparse"
	"scalesim/internal/sram"
	"scalesim/internal/systolic"
	"scalesim/internal/topology"
)

// The module probes of the traced run: short, fixed-count calls into each
// module's public functions on canonical shapes, each inside a span. They
// explain the end-to-end numbers (a layer's cost per call, times how often
// a workload calls it); they are not gated.

// probeEnv is what a module probe works with.
type probeEnv struct {
	rec     *recorder
	m       metrics
	workdir string
	// fpRuns and fpLayers are how many run-level (config + ERT) and
	// layer-level fingerprints one iteration of the workload computes.
	fpRuns, fpLayers int
}

// probesFor maps a workload to the modules whose cost explains it.
var probesFor = map[string][]func(*probeEnv) error{
	"event_cold":        {probeSystolic, probeLayout, probeMemory, probeEnergy},
	"sparse_cold":       {probeSystolic, probeSparse, probeLayout, probeMemory, probeEnergy},
	"sweep_warm":        {probeSimcache},
	"sweep_store":       {probeSystolic, probeMulticore, probeLayout, probeEnergy, probeSimcache, probeDiskstore},
	"explore_screen":    {probeSystolic, probeMemory, probeEnergy, probeExplore},
	"serve_closed_loop": {probeSimcache, probeDiskstore, probeServer, probeCoordinator},
}

// perCall runs fn n times inside one span and returns the mean seconds per
// call.
func (p *probeEnv) perCall(name string, n int, fn func()) float64 {
	id := p.rec.begin("probe/"+name, -1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	d := time.Since(t0)
	p.rec.end(id)
	return d.Seconds() / float64(n)
}

// Canonical probe shapes: ResNet-50's layers lowered to GEMMs on a 32x32
// array (closed-form kernels) and the ViT-base context GEMM (engines).
var (
	probeLayers = topology.ResNet50().Layers
	probeGemm   = systolic.Gemm{M: 197, N: 768, K: 197}
)

// sink keeps results alive so the compiler cannot drop a probed call.
var sink any

func probeSystolic(p *probeEnv) error {
	dfs := config.Dataflows()
	calls := len(probeLayers) * len(dfs)
	p.m["systolic.estimate_ns"] = 1e9 / float64(calls) * p.perCall("systolic.estimate", 200, func() {
		for i := range probeLayers {
			for _, df := range dfs {
				sink = systolic.EstimateLayer(df, 32, 32, &probeLayers[i])
			}
		}
	})
	var err error
	p.m["systolic.fold_schedule_us"] = 1e6 / float64(calls) * p.perCall("systolic.fold_schedule", 5, func() {
		for i := range probeLayers {
			m, n, k := probeLayers[i].GEMMDims()
			for _, df := range dfs {
				fs, e := systolic.NewFoldSchedule(df, 32, 32, systolic.Gemm{M: m, N: n, K: k})
				if e != nil {
					err = e
					return
				}
				sink = fs.Stats()
			}
		}
	})
	if err != nil {
		return err
	}
	demands := 0
	secs := p.perCall("systolic.stream", 1, func() {
		err = systolic.Stream(config.WeightStationary, 32, 32, probeGemm, func(*systolic.Demand) bool {
			demands++
			return true
		})
	})
	p.m["systolic.stream_mdemands_per_s"] = float64(demands) / secs / 1e6
	return err
}

func probeSparse(p *probeEnv) error {
	layers := topology.ResNet18().WithSparsity(topology.Sparsity{N: 2, M: 4}).Layers
	cfg := config.Default().Sparsity
	cfg.Enabled = true
	var err error
	p.m["sparse.estimate_us"] = 1e6 / float64(len(layers)) * p.perCall("sparse.estimate", 20, func() {
		for i := range layers {
			if _, _, e := sparse.EstimateLayer(32, 32, &layers[i], &cfg); e != nil {
				err = e
			}
		}
	})
	return err
}

func probeMulticore(p *probeEnv) error {
	var err error
	p.m["multicore.search_us"] = 1e6 / float64(len(probeLayers)) * p.perCall("multicore.search", 200, func() {
		for i := range probeLayers {
			m, n, k := probeLayers[i].GEMMDims()
			mp := systolic.MappingFor(config.OutputStationary, m, n, k)
			if _, e := multicore.Search(config.SpatialPartition, 4, 32, 32, mp, multicore.MinCycles); e != nil {
				err = e
			}
		}
	})
	return err
}

func probeLayout(p *probeEnv) error {
	lc := layout.Config{Banks: 8, PortsPerBank: 2, TotalBandwidth: 128}
	var as [3]*layout.Analyzer
	for i := range as {
		a, err := layout.NewAnalyzer(lc)
		if err != nil {
			return err
		}
		as[i] = a
	}
	var err error
	p.m["layout.analyze_schedule_us"] = 1e6 / float64(len(probeLayers)) * p.perCall("layout.analyze_schedule", 5, func() {
		for i := range probeLayers {
			m, n, k := probeLayers[i].GEMMDims()
			fs, e := systolic.NewFoldSchedule(config.OutputStationary, 32, 32, systolic.Gemm{M: m, N: n, K: k})
			if e != nil {
				err = e
				return
			}
			layout.AnalyzeSchedule(fs, as[0], as[1], as[2], true)
		}
	})
	// One access group per cycle of the per-cycle replay: 32 addresses a
	// fixed stride apart, the stride varying group to group.
	groups := make([][]int64, 64)
	for g := range groups {
		groups[g] = make([]int64, 32)
		for i := range groups[g] {
			groups[g][i] = int64(g*7 + i*(g%9+1))
		}
	}
	p.m["layout.observe_ns_per_group"] = 1e9 / float64(len(groups)) * p.perCall("layout.observe", 20000, func() {
		for _, g := range groups {
			as[0].Observe(g)
		}
	})
	return err
}

func probeMemory(p *probeEnv) error {
	tech, err := dram.TechByName("DDR4")
	if err != nil {
		return err
	}
	words := int64(512 * 1024 / 4)
	opts := sram.ScheduleOptions{FilterRatio: 1, IfmapSRAMWords: words, FilterSRAMWords: words, OfmapSRAMWords: words / 2}
	var sched *sram.Schedule
	p.m["sram.build_schedule_us"] = 1e6 * p.perCall("sram.build_schedule", 50, func() {
		sched, err = sram.BuildSchedule(config.OutputStationary, 32, 32, probeGemm, opts)
	})
	if err != nil {
		return err
	}
	p.m["sram.estimate_us"] = 1e6 * p.perCall("sram.estimate", 50, func() {
		sink = sram.Estimate(sched, tech, 1, sram.Options{WordBytes: 4})
	})

	var res *sram.Result
	secs := p.perCall("sram.simulate", 3, func() {
		var sys *dram.System
		if sys, err = dram.New(tech, dram.Options{Channels: 1, QueueDepth: 128}); err == nil {
			res, err = sram.Simulate(sched, sys, sram.Options{WordBytes: 4, MaxRequestsPerCycle: 1, StreamWindowWords: words / 2})
		}
	})
	if err != nil {
		return err
	}
	p.m["sram.simulate_ms"] = secs * 1e3
	p.m["dram.ns_per_request"] = secs * 1e9 / float64(res.ReadRequests+res.WriteRequests)
	p.m["sram.skipped_cycle_ratio"] = float64(res.SkippedCycles) / float64(res.TotalCycles)
	p.m["dram.bus_utilization"] = res.DRAM.BusUtilization()

	// A seeded trace: runs of sequential lines broken by random jumps, one
	// request every other cycle, a fifth of them writes.
	rng := rand.New(rand.NewPCG(7, 7))
	const traceLen = 200_000
	secs = p.perCall("dram.simulate_trace", 3, func() {
		reqs := make([]*dram.Request, traceLen)
		addr := int64(0)
		for i := range reqs {
			if i%64 == 0 {
				addr = rng.Int64N(1<<30) &^ 63
			}
			reqs[i] = &dram.Request{Arrive: int64(2 * i), Addr: addr, Write: i%5 == 0}
			addr += 64
		}
		var sys *dram.System
		if sys, err = dram.New(tech, dram.Options{Channels: 1, QueueDepth: 128}); err == nil {
			_, _, err = sys.SimulateTrace(reqs)
		}
	})
	p.m["dram.trace_ns_per_request"] = secs * 1e9 / traceLen
	return err
}

func probeEnergy(p *probeEnv) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 2000
	p.m["energy.default_ert_us"] = 1e6 * p.perCall("energy.default_ert", n, func() { sink = energy.Default65nm() })
	runtime.ReadMemStats(&after)
	p.m["energy.default_ert_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / n

	ecfg := config.Default().Energy
	ert := energy.Default65nm()
	var err error
	p.m["energy.estimate_us"] = 1e6 / float64(len(probeLayers)) * p.perCall("energy.estimate", 50, func() {
		for i := range probeLayers {
			m, n, k := probeLayers[i].GEMMDims()
			est := systolic.Estimate(config.OutputStationary, 32, 32, m, n, k)
			prof := energy.ProfileFromEstimate(config.OutputStationary, est, m, n, k)
			counts := energy.CountActions(prof, &ecfg)
			e := energy.Estimator{ERT: ert, PEs: 32 * 32, SRAMKB: 1280, FrequencyMHz: ecfg.FrequencyMHz}
			if _, e2 := e.Estimate(counts, est.ComputeCycles); e2 != nil {
				err = e2
			}
		}
	})
	return err
}

func probeSimcache(p *probeEnv) error {
	cfg, ert, layer := config.Default(), energy.Default65nm(), probeLayers[1]
	hash := func(name string, v any) float64 {
		return p.perCall(name, 2000, func() {
			h := simcache.NewHasher()
			h.Value(v)
			sink = h.Sum()
		})
	}
	cfgS, ertS, layerS := hash("simcache.hash_config", cfg), hash("simcache.hash_ert", ert), hash("simcache.hash_layer", layer)
	p.m["simcache.hash_config_us"] = cfgS * 1e6
	p.m["simcache.hash_ert_us"] = ertS * 1e6
	p.m["simcache.hash_layer_us"] = layerS * 1e6
	p.m["simcache.fingerprint_ms_per_iter"] = (float64(p.fpRuns)*(cfgS+ertS) + float64(p.fpLayers)*layerS) * 1e3

	c := simcache.New(0, 0)
	keys := make([]simcache.Key, 1024)
	for i := range keys {
		h := simcache.NewHasher()
		h.Int(int64(i))
		keys[i] = h.Sum()
	}
	value := &scalesim.LayerResult{}
	p.m["simcache.put_ns"] = 1e9 / float64(len(keys)) * p.perCall("simcache.put", 200, func() {
		for _, k := range keys {
			c.Put(k, value, 512)
		}
	})
	p.m["simcache.get_hit_ns"] = 1e9 / float64(len(keys)) * p.perCall("simcache.get_hit", 200, func() {
		for _, k := range keys {
			sink, _ = c.Get(k)
		}
	})
	return nil
}

func probeDiskstore(p *probeEnv) error {
	dir, err := os.MkdirTemp(p.workdir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		return err
	}
	// 1000 entries of 700 bytes: the size of a gob-encoded layer result.
	payload := bytes.Repeat([]byte{0xa5}, 700)
	keys := make([]diskstore.Key, 1000)
	for i := range keys {
		keys[i][0], keys[i][1] = byte(i), byte(i>>8)
	}
	p.m["diskstore.put_us"] = 1e6 / float64(len(keys)) * p.perCall("diskstore.put", 1, func() {
		for _, k := range keys {
			if e := s.Put(k, payload); e != nil {
				err = e
			}
		}
	})
	p.m["diskstore.get_us"] = 1e6 / float64(len(keys)) * p.perCall("diskstore.get", 5, func() {
		for _, k := range keys {
			if _, ok := s.Get(k); !ok {
				err = fmt.Errorf("diskstore probe: stored key missing")
			}
		}
	})
	p.m["diskstore.snapshot_ms"] = 1e3 * p.perCall("diskstore.snapshot", 5, func() {
		if e := s.SaveSnapshot(); e != nil {
			err = e
		}
	})
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p.m["diskstore.open_recover_ms"] = 1e3 * p.perCall("diskstore.open_recover", 5, func() {
		s, e := diskstore.Open(dir, diskstore.Options{})
		if e == nil {
			e = s.Close()
		}
		if e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	j, _, err := diskstore.OpenJournal(filepath.Join(dir, "jobs.journal"), nil)
	if err != nil {
		return err
	}
	record := bytes.Repeat([]byte{0x5a}, 600) // a journaled run spec
	p.m["diskstore.journal_append_us"] = 1e6 * p.perCall("diskstore.journal_append", 100, func() {
		if e := j.Append(record); e != nil {
			err = e
		}
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return err
}

func probeExplore(p *probeEnv) error {
	rng := rand.New(rand.NewPCG(11, 11))
	vecs := make([][]float64, 25_000)
	for i := range vecs {
		vecs[i] = []float64{rng.Float64(), rng.Float64()}
	}
	p.m["explore.front_ms"] = 1e3 * p.perCall("explore.front", 5, func() { sink = explore.Front(vecs) })

	space, err := explore.ParseSpace("array_rows=4..53; array_cols=4..53; bandwidth=1..10")
	if err != nil {
		return err
	}
	base := config.Default()
	cands := make([]explore.Candidate, 1000)
	for i := range cands {
		cands[i] = explore.Candidate{rng.IntN(50), rng.IntN(50), rng.IntN(10)}
	}
	p.m["explore.space_apply_ns"] = 1e9 / float64(len(cands)) * p.perCall("explore.space_apply", 100, func() {
		for _, c := range cands {
			sink = space.Apply(base, c)
		}
	})
	return nil
}

func probeServer(p *probeEnv) error {
	next := newInputs(1, 1).serveMix()
	body := next().body
	var err error
	p.m["server.dto_decode_us"] = 1e6 * p.perCall("server.dto_decode", 2000, func() {
		var req server.RunRequest
		if e := json.Unmarshal(body, &req); e != nil {
			err = e
			return
		}
		if _, e := server.DecodeConfig(req.Config); e != nil {
			err = e
		}
		if _, _, e := req.Topology.ToTopology(); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	// A durable deployment: store and job journal attached, so every
	// accept pays an fsync'd journal append before its 202.
	dir, err := os.MkdirTemp(p.workdir, "probe-serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache := scalesim.NewCache(0, 0)
	if err := cache.AttachStore(dir, 0); err != nil {
		return err
	}
	defer cache.CloseStore() //nolint:errcheck // probe teardown
	journal, records, err := diskstore.OpenJournal(filepath.Join(dir, "jobs.journal"), nil)
	if err != nil {
		return err
	}
	defer journal.Close() //nolint:errcheck // probe teardown
	w := startServe(next, server.Options{Cache: cache, Journal: journal, JournalRecords: records})
	defer w.close() //nolint:errcheck // probe teardown
	var accepts []float64
	id := p.rec.begin("probe/server.durable_accept", -1)
	for i := 0; i < 200; i++ {
		t, err := w.doJob(w.callers[0], w.next())
		if err != nil {
			return fmt.Errorf("durable job: %w", err)
		}
		accepts = append(accepts, t.accepted.Sub(t.start).Seconds())
	}
	p.rec.end(id)
	p.m["server.durable_accept_ms_p50"] = median(accepts) * 1e3

	p.m["server.metrics_scrape_ms"] = 1e3 * p.perCall("server.metrics_scrape", 50, func() {
		rr := httptest.NewRecorder()
		w.srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rr.Code != http.StatusOK {
			err = fmt.Errorf("GET /metrics: %d", rr.Code)
		}
	})
	return err
}

func probeCoordinator(p *probeEnv) error {
	next := newInputs(2, 1).serveMix()
	var workers []string
	for i := 0; i < 2; i++ {
		srv := server.New(server.Options{Shards: 1, Cache: scalesim.NewCache(0, 0)})
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Drain(ctx) //nolint:errcheck // probe teardown
		}()
		workers = append(workers, ts.URL)
	}
	// The poll period is the floor of a dispatch; 1 ms keeps the probe at
	// the coordinator's own cost rather than its default 25 ms quantum.
	c, err := coordinator.New(coordinator.Options{Workers: workers, PollInterval: time.Millisecond})
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck // probe teardown
	var bodies [][]byte
	for len(bodies) < 50 {
		// Distinct bodies only: the coordinator answers a repeated
		// fingerprint from its payload store without dispatching.
		if job := next(); job.shape != 0 {
			bodies = append(bodies, job.body)
		}
	}
	p.m["coordinator.fingerprint_us"] = 1e6 / float64(len(bodies)) * p.perCall("coordinator.fingerprint", 20, func() {
		for _, b := range bodies {
			if _, e := coordinator.Fingerprint("run", b); e != nil {
				err = e
			}
		}
	})
	var lat []float64
	id := p.rec.begin("probe/coordinator.execute", -1)
	for _, b := range bodies {
		t0 := time.Now()
		if _, _, e := c.Execute(context.Background(), "run", b); e != nil {
			err = e
		}
		lat = append(lat, time.Since(t0).Seconds())
	}
	p.rec.end(id)
	p.m["coordinator.execute_ms_p50"] = median(lat) * 1e3
	return err
}
