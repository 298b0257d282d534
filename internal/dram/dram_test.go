package dram

import (
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, tech Tech, opts Options) *System {
	t.Helper()
	s, err := New(tech, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTechPresetsValidate(t *testing.T) {
	for _, name := range TechNames() {
		tech, err := TechByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tech.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if tech.CapacityBytes() <= 0 {
			t.Errorf("%s: non-positive capacity", name)
		}
	}
}

func TestTechByNameUnknown(t *testing.T) {
	if _, err := TechByName("SDRAM-66"); err == nil {
		t.Error("unknown technology accepted")
	}
}

func TestSingleReadLatency(t *testing.T) {
	tech := DDR4_2400()
	s := mustNew(t, tech, Options{DisableRefresh: true})
	req := &Request{Addr: 0}
	if !s.Enqueue(req) {
		t.Fatal("enqueue failed")
	}
	if _, err := s.RunUntilDrained(10000); err != nil {
		t.Fatal(err)
	}
	// Cold access: ACT (tRCD) + read (CL) + burst.
	min := int64(tech.TRCD + tech.CL + tech.BurstCycles())
	if lat := req.Latency(); lat < min {
		t.Errorf("cold read latency %d below tRCD+CL+burst=%d", lat, min)
	}
	st := s.Stats()
	if st.Reads != 1 || st.RowMisses != 1 || st.RowHits != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	tech := DDR4_2400()

	// Two reads to the same row: second is a row hit.
	s := mustNew(t, tech, Options{DisableRefresh: true})
	a := &Request{Addr: 0}
	b := &Request{Addr: 64}
	s.Enqueue(a)
	s.Enqueue(b)
	if _, err := s.RunUntilDrained(100000); err != nil {
		t.Fatal(err)
	}
	hitStats := s.Stats()
	if hitStats.RowHits != 1 {
		t.Fatalf("expected 1 row hit, got %+v", hitStats)
	}

	// Two reads to different rows of the same bank: row conflict.
	s2 := mustNew(t, tech, Options{DisableRefresh: true})
	rowBytes := int64(tech.RowBytes())
	banks := int64(tech.Banks())
	c := &Request{Addr: 0}
	d := &Request{Addr: rowBytes * banks} // same bank, next row
	s2.Enqueue(c)
	s2.Enqueue(d)
	if _, err := s2.RunUntilDrained(100000); err != nil {
		t.Fatal(err)
	}
	confStats := s2.Stats()
	if confStats.RowConflicts != 1 {
		t.Fatalf("expected 1 row conflict, got %+v", confStats)
	}
	if d.Latency() <= b.Latency() {
		t.Errorf("conflict latency %d not above hit latency %d", d.Latency(), b.Latency())
	}
}

func TestQueueBackpressure(t *testing.T) {
	s := mustNew(t, DDR4_2400(), Options{QueueDepth: 4, DisableRefresh: true})
	ok := 0
	for i := 0; i < 10; i++ {
		if s.Enqueue(&Request{Addr: int64(i) * 64}) {
			ok++
		}
	}
	if ok != 4 {
		t.Errorf("accepted %d requests with queue depth 4", ok)
	}
}

func TestChannelInterleaving(t *testing.T) {
	s := mustNew(t, DDR4_2400(), Options{Channels: 4, DisableRefresh: true})
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		ch, _, _, _ := s.decode(int64(i) * 64)
		seen[ch] = true
	}
	if len(seen) != 4 {
		t.Errorf("4 consecutive lines hit %d channels, want 4", len(seen))
	}
}

func TestDecodeRoundTripProperty(t *testing.T) {
	s := mustNew(t, DDR4_2400(), Options{Channels: 2, DisableRefresh: true})
	f := func(raw uint32) bool {
		addr := int64(raw) * 64
		ch, rank, bk, row := s.decode(addr)
		return ch >= 0 && ch < 2 &&
			rank >= 0 && rank < s.Tech.Ranks &&
			bk >= 0 && bk < s.Tech.Banks() &&
			row >= 0 && row < int64(s.Tech.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTimingInvariants(t *testing.T) {
	// Ping-pong between two rows of one bank in arrival order: a one-entry
	// queue leaves FR-FCFS nothing to reorder, so every access conflicts
	// and tRC per pair lower-bounds the makespan.
	tech := DDR4_2400()
	s := mustNew(t, tech, Options{DisableRefresh: true, QueueDepth: 1})
	var reqs []*Request
	// Alternate between two rows of the same bank to force ACT churn.
	rowBytes := int64(tech.RowBytes())
	stride := rowBytes * int64(tech.Banks())
	for i := 0; i < 32; i++ {
		addr := int64(i%2) * stride
		reqs = append(reqs, &Request{Addr: addr})
	}
	st, _, err := s.SimulateTrace(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != 32 {
		t.Fatalf("completed %d reads", st.Reads)
	}
	// With ping-pong rows, conflicts dominate: tRC per pair lower-bounds
	// the makespan.
	minCycles := int64(16) * int64(tech.TRC)
	if st.Cycles < minCycles {
		t.Errorf("32 conflicting reads finished in %d cycles (< %d), timing violated",
			st.Cycles, minCycles)
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	tech := DDR4_2400()
	frfcfs := mustNew(t, tech, Options{DisableRefresh: true, QueueDepth: 64})
	// A one-entry queue gives FR-FCFS nothing to reorder: arrival order.
	inOrder := mustNew(t, tech, Options{DisableRefresh: true, QueueDepth: 1})
	// Interleave two row streams: FR-FCFS should batch row hits.
	build := func() []*Request {
		var reqs []*Request
		stride := int64(tech.RowBytes()) * int64(tech.Banks())
		for i := 0; i < 24; i++ {
			addr := int64(i%2)*stride + int64(i/2)*64
			reqs = append(reqs, &Request{Addr: addr})
		}
		return reqs
	}
	r1, _, err := frfcfs.SimulateTrace(build())
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := inOrder.SimulateTrace(build())
	if err != nil {
		t.Fatal(err)
	}
	if r1.RowHits < r2.RowHits {
		t.Errorf("FR-FCFS row hits %d below in-order %d", r1.RowHits, r2.RowHits)
	}
	if r1.Cycles > r2.Cycles {
		t.Errorf("FR-FCFS makespan %d worse than in-order %d", r1.Cycles, r2.Cycles)
	}
}

func TestRefreshHappens(t *testing.T) {
	tech := DDR4_2400()
	s := mustNew(t, tech, Options{})
	for i := int64(0); i < int64(tech.TREFI)*3; i++ {
		s.Tick()
	}
	if st := s.Stats(); st.Refreshes < 2 {
		t.Errorf("expected >= 2 refreshes in 3×tREFI, got %d", st.Refreshes)
	}
}

func TestWritesCompleteAndReadAfterWriteOrdering(t *testing.T) {
	tech := DDR4_2400()
	s := mustNew(t, tech, Options{DisableRefresh: true, QueueDepth: 16})
	w := &Request{Addr: 0, Write: true}
	r := &Request{Addr: 0}
	s.Enqueue(w)
	s.Enqueue(r)
	if _, err := s.RunUntilDrained(100000); err != nil {
		t.Fatal(err)
	}
	if w.Done < 0 || r.Done <= w.Done {
		t.Errorf("read (done %d) not after write (done %d)", r.Done, w.Done)
	}
	st := s.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestMoreChannelsFasterDrain(t *testing.T) {
	tech := DDR4_2400()
	build := func() []*Request {
		var reqs []*Request
		for i := 0; i < 512; i++ {
			reqs = append(reqs, &Request{Addr: int64(i) * 64})
		}
		return reqs
	}
	s1 := mustNew(t, tech, Options{Channels: 1, DisableRefresh: true, QueueDepth: 64})
	st1, _, err := s1.SimulateTrace(build())
	if err != nil {
		t.Fatal(err)
	}
	s4 := mustNew(t, tech, Options{Channels: 4, DisableRefresh: true, QueueDepth: 64})
	st4, _, err := s4.SimulateTrace(build())
	if err != nil {
		t.Fatal(err)
	}
	if st4.Cycles >= st1.Cycles {
		t.Errorf("4 channels (%d cycles) not faster than 1 (%d cycles)", st4.Cycles, st1.Cycles)
	}
}

func TestBandwidthAccounting(t *testing.T) {
	tech := DDR4_2400()
	s := mustNew(t, tech, Options{DisableRefresh: true, QueueDepth: 64})
	var reqs []*Request
	for i := 0; i < 64; i++ {
		reqs = append(reqs, &Request{Addr: int64(i) * 64})
	}
	st, _, err := s.SimulateTrace(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.BusUtilization() <= 0 || st.BusUtilization() > 1 {
		t.Errorf("bus utilization %f out of (0,1]", st.BusUtilization())
	}
	if s.BandwidthBytesPerSec() <= 0 {
		t.Error("zero bandwidth")
	}
	if st.AvgReadLatency() <= 0 {
		t.Error("zero average latency")
	}
	if st.RowHitRate() <= 0.5 {
		t.Errorf("sequential stream row hit rate %.2f too low", st.RowHitRate())
	}
}

func TestValidateRejectsBadTech(t *testing.T) {
	tech := DDR4_2400()
	tech.TRC = 1 // violates tRC >= tRAS + tRP
	if _, err := New(tech, Options{}); err == nil {
		t.Error("invalid tech accepted")
	}
}
