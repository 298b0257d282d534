package main

import (
	"encoding/json"
	"io"
)

// This file is the single declaration of the benchmark contract: the
// workloads, the end-to-end metrics with their regression bounds, and the
// per-layer ledger. BENCHMARK.json at the repository root is exactly what
// `-contract` prints from these tables (pinned by TestContractFile).

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// unit is what work_per_s counts on this workload.
	unit string
}

var workloadDefs = []workloadDef{
	{"event_cold", "paper Table V: ViT-base block on 32/64/128 arrays (DDR4) plus ResNet-18 WS on HBM2x4, no cache; the SRAM/DRAM event engines are over 95% of the time", "simulated cycles"},
	{"sparse_cold", "2:4-sparse ResNet-18 shapes, no cache; the same layout/compute stages take the per-cycle replay instead of the closed form, so a dense-path gain that costs the sparse path shows", "simulated cycles"},
	{"sweep_warm", "16-point ResNet-50 sweep answered from a warm cache and rendered; all time is fingerprint/get/clone and report rendering, engines idle (cache reads)", "sweep points"},
	{"sweep_store", "same 16 points into a fresh disk store, then restored by a second fresh cache; miss path, closed-form kernels and diskstore put/recover/get (cache writes)", "sweep points"},
	{"explore_screen", "25000-candidate grid screened analytically with memory+energy on, top candidates promoted; closed forms, Pareto front and allocation dominate", "candidates"},
	{"serve_closed_loop", "2 keep-alive clients drain POST /v1/runs, SSE, GET reports against an in-process 2-shard server, 80% cache hits; server/DTO/queue/HTTP dominate", "jobs"},
}

// metricDef declares one metric of the contract.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics carry none.
	Bound float64 `json:"bound,omitempty"`
	// exact marks simulated statistics and counts that must repeat
	// exactly between two runs of one seed (-compare checks them).
	exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them, so each is defined for any iteration-shaped workload
// and is never zero.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.20},
	{Name: "iter_ms_p90", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: higher, Bound: 0.20},
	{Name: "alloc_mb_per_iter", Unit: "MB", Better: lower, Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
}

// perLayer is the ledger of the traced run: layer = module name. A metric
// reads 0 on a workload that does not exercise its layer.
var perLayer = []metricDef{
	// scalesim facade
	{Name: "scalesim.stage_compute_ms", Unit: "ms", Better: lower},
	{Name: "scalesim.stage_layout_ms", Unit: "ms", Better: lower},
	{Name: "scalesim.stage_memory_ms", Unit: "ms", Better: lower},
	{Name: "scalesim.stage_energy_ms", Unit: "ms", Better: lower},
	{Name: "scalesim.run_self_ms", Unit: "ms", Better: lower},
	{Name: "scalesim.sweep_ms", Unit: "ms", Better: lower},
	{Name: "scalesim.explore_screen_ms", Unit: "ms", Better: lower},
	{Name: "scalesim.explore_promote_ms", Unit: "ms", Better: lower},
	{Name: "scalesim.store_fill_ms_p50", Unit: "ms", Better: lower},
	{Name: "scalesim.store_restore_ms_p50", Unit: "ms", Better: lower},
	{Name: "scalesim.ledger_coverage", Unit: "ratio", Better: higher},
	{Name: "scalesim.sim_cycles", Unit: "count", Better: lower, exact: true},
	{Name: "scalesim.paper_rel_err", Unit: "ratio", Better: lower, exact: true},
	// systolic, sparse, multicore
	{Name: "systolic.estimate_ns", Unit: "ns", Better: lower},
	{Name: "systolic.fold_schedule_us", Unit: "us", Better: lower},
	{Name: "systolic.stream_mdemands_per_s", Unit: "1/s", Better: higher},
	{Name: "sparse.estimate_us", Unit: "us", Better: lower},
	{Name: "multicore.search_us", Unit: "us", Better: lower},
	// layout
	{Name: "layout.analyze_schedule_us", Unit: "us", Better: lower},
	{Name: "layout.observe_ns_per_group", Unit: "ns", Better: lower},
	{Name: "layout.worst_slowdown", Unit: "ratio", Better: lower, exact: true},
	// sram
	{Name: "sram.build_schedule_us", Unit: "us", Better: lower},
	{Name: "sram.simulate_ms", Unit: "ms", Better: lower},
	{Name: "sram.estimate_us", Unit: "us", Better: lower},
	{Name: "sram.stall_cycles", Unit: "count", Better: lower, exact: true},
	{Name: "sram.queue_full_cycles", Unit: "count", Better: lower, exact: true},
	{Name: "sram.skipped_cycle_ratio", Unit: "ratio", Better: higher, exact: true},
	// dram
	{Name: "dram.ns_per_request", Unit: "ns", Better: lower},
	{Name: "dram.trace_ns_per_request", Unit: "ns", Better: lower},
	{Name: "dram.requests", Unit: "count", Better: lower, exact: true},
	{Name: "dram.row_hit_rate", Unit: "ratio", Better: higher, exact: true},
	{Name: "dram.avg_read_latency_cycles", Unit: "count", Better: lower, exact: true},
	{Name: "dram.bus_utilization", Unit: "ratio", Better: higher, exact: true},
	// energy
	{Name: "energy.default_ert_us", Unit: "us", Better: lower},
	{Name: "energy.default_ert_bytes", Unit: "count", Better: lower},
	{Name: "energy.estimate_us", Unit: "us", Better: lower},
	{Name: "energy.best_edp_array", Unit: "count", Better: lower, exact: true},
	// simcache
	{Name: "simcache.hash_config_us", Unit: "us", Better: lower},
	{Name: "simcache.hash_ert_us", Unit: "us", Better: lower},
	{Name: "simcache.hash_layer_us", Unit: "us", Better: lower},
	{Name: "simcache.get_hit_ns", Unit: "ns", Better: lower},
	{Name: "simcache.put_ns", Unit: "ns", Better: lower},
	{Name: "simcache.fingerprint_ms_per_iter", Unit: "ms", Better: lower},
	{Name: "simcache.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "simcache.store_hit_ratio", Unit: "ratio", Better: higher},
	// diskstore
	{Name: "diskstore.put_us", Unit: "us", Better: lower},
	{Name: "diskstore.get_us", Unit: "us", Better: lower},
	{Name: "diskstore.open_recover_ms", Unit: "ms", Better: lower},
	{Name: "diskstore.snapshot_ms", Unit: "ms", Better: lower},
	{Name: "diskstore.journal_append_us", Unit: "us", Better: lower},
	{Name: "diskstore.put_bytes", Unit: "count", Better: lower, exact: true},
	{Name: "diskstore.io_errors", Unit: "count", Better: lower, exact: true},
	// explore
	{Name: "explore.front_ms", Unit: "ms", Better: lower},
	{Name: "explore.space_apply_ns", Unit: "ns", Better: lower},
	{Name: "explore.promote_ratio", Unit: "ratio", Better: lower, exact: true},
	// report
	{Name: "report.render_ms", Unit: "ms", Better: lower},
	{Name: "report.bytes", Unit: "count", Better: lower, exact: true},
	// server
	{Name: "server.dto_decode_us", Unit: "us", Better: lower},
	{Name: "server.accept_ms_p50", Unit: "ms", Better: lower},
	{Name: "server.accept_ms_p99", Unit: "ms", Better: lower},
	{Name: "server.queue_run_ms_p50", Unit: "ms", Better: lower},
	{Name: "server.reports_fetch_us_p50", Unit: "us", Better: lower},
	{Name: "server.hit_done_ms_p50", Unit: "ms", Better: lower},
	{Name: "server.miss_done_ms_p50", Unit: "ms", Better: lower},
	{Name: "server.rejected", Unit: "count", Better: lower},
	{Name: "server.metrics_scrape_ms", Unit: "ms", Better: lower},
	{Name: "server.durable_accept_ms_p50", Unit: "ms", Better: lower},
	// coordinator
	{Name: "coordinator.execute_ms_p50", Unit: "ms", Better: lower},
	{Name: "coordinator.fingerprint_us", Unit: "us", Better: lower},
	// telemetry
	{Name: "telemetry.trace_overhead_ratio", Unit: "ratio", Better: lower},
}

// runSeconds is how long one run measures under the driver.
const runSeconds = 10

// writeContract renders BENCHMARK.json.
func writeContract(w io.Writer) error {
	type ledgerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	ledger := make([]ledgerDef, len(perLayer))
	for i, m := range perLayer {
		ledger[i] = ledgerDef{m.Name, m.Unit, m.Better}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []ledgerDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   ledger,
	})
}
