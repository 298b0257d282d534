// Package faultinject is a deterministic, seeded fault-injection framework
// for the three I/O seams failures actually enter through: the filesystem
// under internal/diskstore, the HTTP transport under the coordinator, and
// job execution inside internal/server. A Plan holds per-fault-kind rates
// plus a seed; every injection decision is drawn from a PRNG keyed by
// (seed, site), so the decision sequence at any one site replays exactly
// across runs regardless of how goroutines interleave between sites. A
// chaos failure therefore shrinks to "this plan spec" — a replayable test
// case, not a flake.
//
// Plans are written as specs, e.g.
//
//	seed=42,disk.error=0.05,net.reset=0.1,job.crash=0.02
//
// so a CI job, a -faults flag and a test table all speak the same format.
// Every injected fault is counted by kind; Counts feeds the
// scalesim_faults_injected_total metric so a chaos run is observable while
// it happens.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config holds one rate per fault kind, all probabilities in [0, 1].
// The zero Config injects nothing.
type Config struct {
	// Seed makes the plan reproducible: equal seeds and rates produce equal
	// per-site decision sequences.
	Seed uint64

	// Filesystem faults (the diskstore FS seam).
	DiskError      float64 // read/write fails with ErrInjectedDisk (ENOSPC-shaped)
	DiskShortWrite float64 // write persists a prefix, then fails — a torn tail
	DiskBitFlip    float64 // one bit of the written payload is flipped — bit rot
	DiskRename     float64 // rename fails, stranding temp files

	// Network faults (the coordinator transport seam).
	NetReset     float64       // request fails with a connection-reset error
	NetLatency   float64       // response delayed by NetLatencyBy
	NetTruncate  float64       // response body ends early with unexpected EOF
	Net5xx       float64       // synthesized 503 without reaching the worker
	NetLatencyBy time.Duration // spike size; 0 selects 50ms

	// Worker faults (the server job-execution seam).
	JobCrash float64 // job execution panics mid-job
}

// Plan is a live fault plan: Config plus the per-site PRNG state and the
// injected-fault counters. Safe for concurrent use.
type Plan struct {
	cfg Config

	mu     sync.Mutex
	sites  map[string]*rand.Rand
	counts map[string]int64
}

// New builds a Plan from a Config. A nil *Plan is valid everywhere and
// injects nothing, so call sites need no guards.
func New(cfg Config) *Plan {
	return &Plan{
		cfg:    cfg,
		sites:  make(map[string]*rand.Rand),
		counts: make(map[string]int64),
	}
}

// specSetters maps spec keys to Config fields. "seed" and "net.latencyms"
// are handled separately (not probabilities).
var specSetters = map[string]func(*Config, float64){
	"disk.error":   func(c *Config, v float64) { c.DiskError = v },
	"disk.short":   func(c *Config, v float64) { c.DiskShortWrite = v },
	"disk.bitflip": func(c *Config, v float64) { c.DiskBitFlip = v },
	"disk.rename":  func(c *Config, v float64) { c.DiskRename = v },
	"net.reset":    func(c *Config, v float64) { c.NetReset = v },
	"net.latency":  func(c *Config, v float64) { c.NetLatency = v },
	"net.truncate": func(c *Config, v float64) { c.NetTruncate = v },
	"net.5xx":      func(c *Config, v float64) { c.Net5xx = v },
	"job.crash":    func(c *Config, v float64) { c.JobCrash = v },
}

// Parse builds a Plan from a comma-separated key=value spec (see the
// package comment). An empty spec returns a nil Plan: no injection.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var cfg Config
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: %q is not key=value", kv)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "seed":
			seed, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: seed %q: %w", val, err)
			}
			cfg.Seed = seed
		case "net.latencyms":
			// The negated range check rejects NaN too.
			ms, err := strconv.ParseFloat(val, 64)
			if err != nil || !(ms >= 0 && ms < math.MaxInt64/float64(time.Millisecond)) {
				return nil, fmt.Errorf("faultinject: net.latencyms %q must be a non-negative number a time.Duration can hold", val)
			}
			cfg.NetLatencyBy = time.Duration(ms * float64(time.Millisecond))
		default:
			set, known := specSetters[key]
			if !known {
				return nil, fmt.Errorf("faultinject: unknown fault kind %q", key)
			}
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil || !(rate >= 0 && rate <= 1) {
				return nil, fmt.Errorf("faultinject: rate %s=%q must be in [0,1]", key, val)
			}
			set(&cfg, rate)
		}
	}
	return New(cfg), nil
}

// Config returns the plan's configuration (zero Config for a nil plan).
func (p *Plan) Config() Config {
	if p == nil {
		return Config{}
	}
	return p.cfg
}

// siteLocked returns site's PRNG, creating it seeded by (plan seed, site
// name) on first use. Caller holds p.mu.
func (p *Plan) siteLocked(site string) *rand.Rand {
	r := p.sites[site]
	if r == nil {
		h := fnv.New64a()
		h.Write([]byte(site))
		r = rand.New(rand.NewPCG(p.cfg.Seed, h.Sum64()))
		p.sites[site] = r
	}
	return r
}

// roll draws the next decision for site: true with probability rate. Each
// site owns an independent PRNG seeded by (plan seed, site name), so one
// site's sequence is unaffected by activity at any other site.
func (p *Plan) roll(site string, rate float64) bool {
	if p == nil || rate <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.siteLocked(site).Float64() < rate
}

// intn draws the next integer in [0, n) for site.
func (p *Plan) intn(site string, n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.siteLocked(site).IntN(n)
}

// count records one injected fault of the given kind.
func (p *Plan) count(kind string) {
	p.mu.Lock()
	p.counts[kind]++
	p.mu.Unlock()
}

// Counts snapshots injected-fault totals by kind (nil map for a nil plan).
func (p *Plan) Counts() map[string]int64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.counts))
	for k, v := range p.counts {
		out[k] = v
	}
	return out
}

// String renders the plan back as a canonical spec (kinds sorted, zero
// rates omitted), suitable for logging a failure as a repro command.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	parts := []string{fmt.Sprintf("seed=%d", p.cfg.Seed)}
	rates := map[string]float64{
		"disk.error":   p.cfg.DiskError,
		"disk.short":   p.cfg.DiskShortWrite,
		"disk.bitflip": p.cfg.DiskBitFlip,
		"disk.rename":  p.cfg.DiskRename,
		"net.reset":    p.cfg.NetReset,
		"net.latency":  p.cfg.NetLatency,
		"net.truncate": p.cfg.NetTruncate,
		"net.5xx":      p.cfg.Net5xx,
		"job.crash":    p.cfg.JobCrash,
	}
	keys := make([]string, 0, len(rates))
	for k, v := range rates {
		if v > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, rates[k]))
	}
	if p.cfg.NetLatencyBy > 0 {
		parts = append(parts, fmt.Sprintf("net.latencyms=%v", float64(p.cfg.NetLatencyBy)/float64(time.Millisecond)))
	}
	return strings.Join(parts, ",")
}
