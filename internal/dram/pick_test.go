package dram

import (
	"fmt"
	"math/rand"
	"testing"
)

// scanPick is the FR-FCFS pick by a linear scan of the reorder window, the
// rule pickAt followed before the open-row hit count: the oldest arrived
// row hit in the window, else the oldest arrived request. It also returns
// the earliest Arrive > t among the scanned requests. It is the oracle for
// pickAt's index: the differential tests cannot catch an index bug,
// because the reference tick loop picks through the same pickAt.
func scanPick(ch *channel, t int64) (int, int64) {
	futureArrive := farFuture
	if ch.queue.n == 0 {
		return -1, futureArrive
	}
	bestAny := -1
	for i := range min(ch.queue.n, reorderWindow) {
		p := ch.queue.at(i)
		if a := p.req.Arrive; a > t {
			futureArrive = min(futureArrive, a)
			continue
		}
		if bestAny < 0 {
			bestAny = i
		}
		if p.bk.openRow == p.row {
			return i, futureArrive
		}
	}
	return bestAny, futureArrive
}

// pickCase is one controller configuration the pick oracle drives.
type pickCase struct {
	depth  int
	future bool // enqueue some requests with Arrive beyond the clock
}

func (c pickCase) String() string {
	return fmt.Sprintf("q%d/open-row/fr-fcfs/future=%v", c.depth, c.future)
}

// drivePick runs an enqueue/advance sequence drawn from next (which reports
// false once exhausted) against a two-channel system with a short refresh
// interval, and after every step compares each channel's pick with
// scanPick at the current and the next cycle, and its hit count with a
// recount of the window. Requests go to a few rows of a few banks, so row
// hits enter and leave the window through every path that moves them.
func drivePick(t testing.TB, c pickCase, next func() (byte, bool)) {
	tech := DDR4_2400()
	tech.TREFI = 700 // several refreshes per run
	s, err := New(tech, Options{Channels: 2, QueueDepth: c.depth})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; ; step++ {
		op, ok := next()
		if !ok {
			return
		}
		switch {
		case op < 150:
			a, _ := next()
			b, _ := next()
			row, bank, col := int64(a%3), int64(a/3%4), int64(b%8)
			line := ((row*s.nrank*s.nbk+bank)*s.linesPerRow+col)*s.nch + int64(b/8%2)
			req := &Request{Addr: line * s.lineBytes, Write: b >= 192}
			if c.future && a >= 224 {
				req.Arrive = s.Now() + int64(b%24)
			}
			s.Enqueue(req)
		case op < 240:
			s.Tick()
		default:
			s.AdvanceTo(s.NextEventCycle())
		}
		for i, ch := range s.channels {
			for _, at := range []int64{s.Now(), s.Now() + 1} {
				gi, gf := ch.pickAt(at)
				wi, wf := scanPick(ch, at)
				if gi != wi || gf != wf {
					t.Fatalf("step %d, channel %d, cycle %d: pick (%d, %d), scan (%d, %d)",
						step, i, at, gi, gf, wi, wf)
				}
			}
			hits := 0
			for j := range min(ch.queue.n, reorderWindow) {
				if p := ch.queue.at(j); p.bk.openRow == p.row {
					hits++
				}
			}
			if hits != ch.hits {
				t.Fatalf("step %d, channel %d: hit count %d, window holds %d hits", step, i, ch.hits, hits)
			}
		}
	}
}

// pickCases crosses queue depths below, at, just past and twice the
// reorder window with queues with and without future arrivals.
func pickCases() []pickCase {
	var cases []pickCase
	for _, depth := range []int{8, 64, 65, 128} {
		for _, future := range []bool{false, true} {
			cases = append(cases, pickCase{depth, future})
		}
	}
	return cases
}

// TestPickMatchesScan checks the open-row hit index against the linear
// scan over seeded random enqueue/advance sequences.
func TestPickMatchesScan(t *testing.T) {
	for i, c := range pickCases() {
		// Case i draws from seed 8·(i/2) + i%2 + 1, so each case replays
		// the sequence it was pinned with when the grid also crossed two
		// row policies and two schedulers.
		seed := int64(8*(i/2)+i%2) + 1
		t.Run(c.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			steps := 0
			drivePick(t, c, func() (byte, bool) {
				steps++
				return byte(rng.Intn(256)), steps <= 30_000
			})
		})
	}
}

// FuzzPickMatchesScan is TestPickMatchesScan over fuzzer bytes: the first
// byte picks the configuration, the rest drive the sequence.
func FuzzPickMatchesScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cases := pickCases()
		c := cases[int(data[0])%len(cases)]
		data = data[1:]
		drivePick(t, c, func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		})
	})
}
