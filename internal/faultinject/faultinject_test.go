package faultinject

import (
	"strings"
	"testing"
	"time"
)

// TestParseRoundTrip: a spec parses, renders canonically via String, and
// re-parsing the rendering yields the same Config — the repro-command
// contract: the plan a failure logs is the plan that reproduces it.
func TestParseRoundTrip(t *testing.T) {
	spec := "seed=42,disk.error=0.05,disk.short=0.1,disk.bitflip=0.01,disk.rename=0.2," +
		"net.reset=0.3,net.latency=0.4,net.latencyms=10,net.truncate=0.5,net.5xx=0.6,job.crash=0.02"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.Seed != 42 || cfg.DiskError != 0.05 || cfg.DiskShortWrite != 0.1 ||
		cfg.DiskBitFlip != 0.01 || cfg.DiskRename != 0.2 || cfg.NetReset != 0.3 ||
		cfg.NetLatency != 0.4 || cfg.NetLatencyBy != 10*time.Millisecond ||
		cfg.NetTruncate != 0.5 || cfg.Net5xx != 0.6 || cfg.JobCrash != 0.02 {
		t.Fatalf("parsed config %+v does not match spec %q", cfg, spec)
	}
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("canonical spec %q does not re-parse: %v", p.String(), err)
	}
	if p2.Config() != cfg {
		t.Fatalf("String round trip changed the config:\n  %+v\n  %+v", cfg, p2.Config())
	}
}

func TestParseEmptySpecMeansNoPlan(t *testing.T) {
	p, err := Parse("  ")
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Fatalf("empty spec returned a plan: %+v", p)
	}
	// The nil plan must be inert and safe at every call site.
	if p.roll("x", 1) {
		t.Error("nil plan rolled true")
	}
	if p.Counts() != nil {
		t.Error("nil plan returned counts")
	}
	if p.String() != "" {
		t.Errorf("nil plan String = %q", p.String())
	}
	if p.JobHook() != nil {
		t.Error("nil plan returned a job hook")
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"disk.error",       // not key=value
		"disk.explode=0.5", // unknown kind
		"disk.error=1.5",   // rate out of range
		"disk.error=-0.1",  // rate out of range
		"disk.error=lots",  // not a number
		"seed=abc",         // bad seed
		"net.latencyms=-5", // negative latency
		"disk.error=NaN",   // not a rate
		"net.latencyms=NaN",
		"net.latencyms=+Inf",
		"net.latencyms=1e300", // overflows a Duration
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}
}

// TestPerSiteDeterminism is the framework's core property: the decision
// sequence at a site depends only on (seed, site), not on what other sites
// drew in between.
func TestPerSiteDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, DiskError: 0.5}
	a, b := New(cfg), New(cfg)

	var seqA, seqB []bool
	for i := 0; i < 64; i++ {
		seqA = append(seqA, a.roll("site-x", cfg.DiskError))
		// Interleave unrelated traffic on plan b only: it must not perturb
		// site-x's sequence.
		b.roll("site-y", cfg.DiskError)
		b.roll("site-z", cfg.DiskError)
		seqB = append(seqB, b.roll("site-x", cfg.DiskError))
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("decision %d at site-x diverged (%v vs %v) under interleaved traffic", i, seqA[i], seqB[i])
		}
	}

	if diff := New(Config{Seed: 8, DiskError: 0.5}); sameSequence(a, diff, "fresh-site", 64) {
		t.Error("different seeds produced identical decision sequences")
	}
}

func sameSequence(a, b *Plan, site string, n int) bool {
	for i := 0; i < n; i++ {
		if a.roll(site, 0.5) != b.roll(site, 0.5) {
			return false
		}
	}
	return true
}

func TestCountsAccumulatePerKind(t *testing.T) {
	p := New(Config{Seed: 1})
	p.count("disk.error")
	p.count("disk.error")
	p.count("net.reset")
	c := p.Counts()
	if c["disk.error"] != 2 || c["net.reset"] != 1 {
		t.Fatalf("counts = %v, want disk.error=2 net.reset=1", c)
	}
	// Counts returns a snapshot, not the live map.
	c["disk.error"] = 99
	if p.Counts()["disk.error"] != 2 {
		t.Error("mutating the snapshot changed the plan's counters")
	}
}

func TestStringOmitsZeroRates(t *testing.T) {
	p := New(Config{Seed: 3, NetReset: 0.25})
	s := p.String()
	if s != "net.reset=0.25" && !strings.Contains(s, "seed=3") {
		t.Fatalf("String = %q, want seed and net.reset only", s)
	}
	if strings.Contains(s, "disk.") || strings.Contains(s, "job.") {
		t.Fatalf("String = %q mentions zero-rate kinds", s)
	}
}

// FuzzParsePlan feeds arbitrary -faults specs to Parse. It must never
// panic, and a plan it accepts must round-trip: its String parses back to
// a plan that renders the same.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"seed=42,disk.error=0.05,disk.short=0.1,disk.bitflip=0.01,disk.rename=0.2",
		"seed=7,net.reset=0.05,net.latencyms=30,net.truncate=0.5,net.5xx=0.6",
		"seed=3,job.crash=0.3",
		"net.latencyms=0.000001",
		"disk.error=1.5",
		"seed=-1",
		"bogus",
		" , ,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		s := p.String()
		q, err := Parse(s)
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", spec, s, err)
		}
		if q.String() != s {
			t.Fatalf("%q renders %q, which renders %q", spec, s, q.String())
		}
	})
}
