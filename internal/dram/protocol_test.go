package dram

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The protocol checker is the DRAM engine's timing oracle. The differential
// tests in event_test.go compare the event engine with Tick in a loop, and
// both run the same scheduler and legality code, so a timing rule the
// controller gets wrong shows in neither. The checker instead logs every
// command the engine issues and checks the log against rules restated from
// the DDR timing definitions. It reads the engine only through bank and
// statistics state, never through actReady, readyCycle, issue* or pickAt.
// Two measured gaps are named exceptions (gapReadWriteBurst and
// gapRefreshClose below), as the SRAM oracle's doc comment lists its two.

// cmdKind names a DRAM command.
type cmdKind int

const (
	cmdACT cmdKind = iota
	cmdPRE
	cmdRD
	cmdWR
	cmdREF
)

func (k cmdKind) String() string { return [...]string{"ACT", "PRE", "RD", "WR", "REF"}[k] }

// command is one logged DRAM command. REF carries no bank or row.
type command struct {
	at         int64
	kind       cmdKind
	rank, bank int
	row        int64
}

func (c command) String() string {
	return fmt.Sprintf("%s@%d r%d b%d row %d", c.kind, c.at, c.rank, c.bank, c.row)
}

// The rules a violation can name. Two of them are named exceptions: gaps
// between the engine and the DDR definitions that are known and measured.
// The checker still counts them, and the tests pin those counts.
const (
	ruleOnePerCycle = "one command per cycle"
	ruleRowState    = "row state"
	ruleTRCD        = "tRCD"
	ruleTRP         = "tRP"
	ruleTRAS        = "tRAS"
	ruleTRC         = "tRC"
	ruleTRRD        = "tRRD"
	ruleTFAW        = "tFAW"
	ruleTRTP        = "tRTP"
	ruleTWR         = "tWR"
	ruleTWTR        = "tWTR"
	ruleTCCD        = "same-bank tCCD"
	ruleTRFC        = "tRFC"
	ruleDataBus     = "data bus"

	// gapReadWriteBurst: a write burst overlaps an earlier read burst on
	// the data bus. The engine reserves the bus at command time, but read
	// data lands at CL and write data at CWL, and CL > CWL on every
	// preset; no read-to-write turnaround is modelled.
	gapReadWriteBurst = "gap: write burst overlaps read burst"
	// gapRefreshClose: a REF closes an open row before tRAS, tWR or tRTP
	// allow a precharge, or comes within tRP of a PRE. The engine drops
	// every open row at the REF cycle with no precharge timing.
	gapRefreshClose = "gap: REF closes row without precharge timing"
)

// violation is one broken rule, with the command that broke it.
type violation struct {
	rule string
	cmd  command
}

// bankLog is the checker's own view of one bank, built from the log.
type bankLog struct {
	openRow          int64 // -1 when precharged
	lastACT, lastPRE int64
	lastRD, lastCol  int64 // the last RD, the last RD or WR
	writeDataEnd     int64 // end of the last write burst
}

// burst is one data transfer on a channel's data bus, [start, end).
type burst struct {
	start, end int64
	write      bool
}

// protocolChecker checks one channel's command log as it is appended.
type protocolChecker struct {
	t                  Tech
	banks              [][]bankLog // [rank][bank]
	rankACTs           [][]int64   // per rank, the last four ACT cycles
	rankWriteDataEnd   []int64
	lastREF, lastCmdAt int64
	bus                []burst // bursts that may still overlap a later one
	violations         []violation
}

const never = -1 << 40

func newProtocolChecker(t Tech) *protocolChecker {
	c := &protocolChecker{t: t, lastREF: never, lastCmdAt: never}
	for range t.Ranks {
		bl := make([]bankLog, t.Banks())
		for i := range bl {
			bl[i] = bankLog{openRow: -1, lastACT: never, lastPRE: never, lastRD: never,
				lastCol: never, writeDataEnd: never}
		}
		c.banks = append(c.banks, bl)
		c.rankACTs = append(c.rankACTs, nil)
		c.rankWriteDataEnd = append(c.rankWriteDataEnd, never)
	}
	return c
}

// require records a violation of rule unless ok.
func (c *protocolChecker) require(ok bool, rule string, cmd command) {
	if !ok {
		c.violations = append(c.violations, violation{rule, cmd})
	}
}

// issue checks cmd against the rules and applies it to the checker's state.
func (c *protocolChecker) issue(cmd command) {
	t, at := &c.t, cmd.at
	c.require(at > c.lastCmdAt, ruleOnePerCycle, cmd)
	c.lastCmdAt = at
	c.require(at >= c.lastREF+int64(t.TRFC), ruleTRFC, cmd)
	if cmd.kind == cmdREF {
		c.refresh(cmd)
		return
	}
	b := &c.banks[cmd.rank][cmd.bank]
	switch cmd.kind {
	case cmdACT:
		c.require(b.openRow < 0, ruleRowState, cmd)
		c.require(at >= b.lastPRE+int64(t.TRP), ruleTRP, cmd)
		c.require(at >= b.lastACT+int64(t.TRC), ruleTRC, cmd)
		acts := c.rankACTs[cmd.rank]
		if n := len(acts); n > 0 {
			c.require(at >= acts[n-1]+int64(t.TRRD), ruleTRRD, cmd)
		}
		if len(acts) == 4 {
			c.require(at >= acts[0]+int64(t.TFAW), ruleTFAW, cmd)
			acts = acts[1:]
		}
		c.rankACTs[cmd.rank] = append(acts, at)
		b.openRow, b.lastACT = cmd.row, at
	case cmdPRE:
		c.require(b.openRow >= 0, ruleRowState, cmd)
		c.precharge(b, cmd, "")
		b.openRow, b.lastPRE = -1, at
	case cmdRD, cmdWR:
		c.require(b.openRow >= 0 && b.openRow == cmd.row, ruleRowState, cmd)
		c.require(at >= b.lastACT+int64(t.TRCD), ruleTRCD, cmd)
		c.require(at >= b.lastCol+int64(t.TCCD), ruleTCCD, cmd)
		burstCycles := int64(t.BurstCycles())
		nb := burst{start: at + int64(t.CL), write: cmd.kind == cmdWR}
		if nb.write {
			nb.start = at + int64(t.CWL)
		} else {
			c.require(at >= c.rankWriteDataEnd[cmd.rank]+int64(t.TWTR), ruleTWTR, cmd)
			b.lastRD = at
		}
		nb.end = nb.start + burstCycles
		c.onDataBus(nb, cmd)
		if nb.write {
			b.writeDataEnd = nb.end
			c.rankWriteDataEnd[cmd.rank] = max(c.rankWriteDataEnd[cmd.rank], nb.end)
		}
		b.lastCol = at
	}
}

// precharge checks the timing a precharge of b at cmd.at needs: tRAS after
// the ACT, tRTP after the last read and tWR after the last write burst.
// A non-empty gap names the exception its violations count under.
func (c *protocolChecker) precharge(b *bankLog, cmd command, gap string) {
	t, at := &c.t, cmd.at
	c.require(at >= b.lastACT+int64(t.TRAS), cmp.Or(gap, ruleTRAS), cmd)
	c.require(at >= b.lastRD+int64(t.TRTP), cmp.Or(gap, ruleTRTP), cmd)
	c.require(at >= b.writeDataEnd+int64(t.TWR), cmp.Or(gap, ruleTWR), cmd)
}

// refresh applies an all-bank REF. DDR requires every bank precharged tRP
// before a REF; the engine instead closes open rows at the REF itself, so
// each bank's implicit precharge is checked like a PRE, and a REF within
// tRP of a PRE is a violation. All of it counts as gapRefreshClose.
func (c *protocolChecker) refresh(cmd command) {
	for r := range c.banks {
		for i := range c.banks[r] {
			b := &c.banks[r][i]
			if b.openRow >= 0 {
				c.precharge(b, cmd, gapRefreshClose)
				b.openRow, b.lastPRE = -1, cmd.at
			} else {
				c.require(cmd.at >= b.lastPRE+int64(c.t.TRP), gapRefreshClose, cmd)
			}
		}
	}
	c.lastREF = cmd.at
}

// onDataBus checks that nb overlaps no earlier burst. A write burst over
// an earlier read burst is the named exception gapReadWriteBurst; every
// other overlap breaks the data-bus rule.
func (c *protocolChecker) onDataBus(nb burst, cmd command) {
	// Every later command's burst starts after cmd.at, so bursts that end
	// by then can overlap nothing more.
	c.bus = slices.DeleteFunc(c.bus, func(b burst) bool { return b.end <= cmd.at })
	for _, b := range c.bus {
		rule := ruleDataBus
		if nb.write && !b.write {
			rule = gapReadWriteBurst
		}
		c.require(nb.start >= b.end || b.start >= nb.end, rule, cmd)
	}
	c.bus = append(c.bus, nb)
}

// protocolRun drives a System through a request trace on the event engine,
// the path SimulateTrace takes, and derives each channel's command log from
// the state each Tick leaves behind. A channel issues at most one command
// per cycle and none in a REF's cycle, so the change names the command: a
// Refreshes increment is a REF, a bank whose lastACT is the cycle an ACT, a
// row closed without a refresh a PRE, and a Reads or Writes increment the
// column command of the one request whose Done was just set.
type protocolRun struct {
	s      *System
	chans  []*channelLog
	counts [5]int64 // logged commands per kind
}

// channelLog is one channel's checker and what step compares against.
type channelLog struct {
	checker *protocolChecker
	// outstanding holds the channel's enqueued requests not yet served.
	outstanding []*pendingReq
	// prevRows and prevStats are the channel's state before the last Tick.
	prevRows  [][]int64 // [rank][bank] open row
	prevStats Stats
}

type pendingReq struct {
	req        *Request
	rank, bank int
	row        int64
}

func newProtocolRun(s *System) *protocolRun {
	pr := &protocolRun{s: s}
	for range s.channels {
		cl := &channelLog{checker: newProtocolChecker(s.Tech)}
		for range s.Tech.Ranks {
			cl.prevRows = append(cl.prevRows, make([]int64, s.Tech.Banks()))
		}
		pr.chans = append(pr.chans, cl)
	}
	return pr
}

func (pr *protocolRun) enqueue(r *Request) bool {
	if !pr.s.Enqueue(r) {
		return false
	}
	ch, rank, bk, row := pr.s.decode(r.Addr)
	cl := pr.chans[ch]
	cl.outstanding = append(cl.outstanding, &pendingReq{r, rank, bk, row})
	return true
}

// step advances to the next controller event (at most limit) and logs the
// commands its Tick issued.
func (pr *protocolRun) step(limit int64) {
	for i, ch := range pr.s.channels {
		cl := pr.chans[i]
		for r := range ch.banks {
			for b := range ch.banks[r] {
				cl.prevRows[r][b] = ch.banks[r][b].openRow
			}
		}
		cl.prevStats = ch.stats
	}
	pr.s.stepTo(min(pr.s.NextEventCycle(), limit))
	now := pr.s.Now()
	for i, ch := range pr.s.channels {
		cl, st := pr.chans[i], &ch.stats
		log := func(c command) {
			pr.counts[c.kind]++
			cl.checker.issue(c)
		}
		refreshed := st.Refreshes != cl.prevStats.Refreshes
		if refreshed {
			log(command{at: now, kind: cmdREF})
		}
		for r := range ch.banks {
			for b := range ch.banks[r] {
				bk := &ch.banks[r][b]
				switch {
				case bk.lastACT == now:
					log(command{now, cmdACT, r, b, bk.openRow})
				case bk.openRow < 0 && cl.prevRows[r][b] >= 0 && !refreshed:
					log(command{now, cmdPRE, r, b, -1})
				}
			}
		}
		if st.Reads != cl.prevStats.Reads || st.Writes != cl.prevStats.Writes {
			j := slices.IndexFunc(cl.outstanding, func(p *pendingReq) bool { return p.req.Done != 0 })
			p, kind := cl.outstanding[j], cmdRD
			if p.req.Write {
				kind = cmdWR
			}
			log(command{now, kind, p.rank, p.bank, p.row})
			cl.outstanding = slices.Delete(cl.outstanding, j, j+1)
		}
	}
}

// simulate feeds reqs (sorted by Arrive) through the system as
// SimulateTrace does, retrying a request that finds its queue full at the
// next controller event, then drains it.
func (pr *protocolRun) simulate(reqs []*Request) {
	s := pr.s
	for i := 0; i < len(reqs); {
		if s.Now() < reqs[i].Arrive {
			pr.step(reqs[i].Arrive)
			continue
		}
		if pr.enqueue(reqs[i]) {
			i++
			continue
		}
		pr.step(farFuture)
	}
	for s.Pending() > 0 {
		pr.step(farFuture)
	}
}

// violations returns every channel's violations.
func (pr *protocolRun) violations() []violation {
	var all []violation
	for _, cl := range pr.chans {
		all = append(all, cl.checker.violations...)
	}
	return all
}

// checkProtocol runs reqs through a fresh system and returns the run.
func checkProtocol(t testing.TB, tech Tech, opts Options, reqs []*Request) *protocolRun {
	s, err := New(tech, opts)
	if err != nil {
		t.Fatal(err)
	}
	pr := newProtocolRun(s)
	pr.simulate(reqs)
	return pr
}

// strictViolations reports the violations outside the named exceptions.
func strictViolations(t testing.TB, vs []violation) {
	t.Helper()
	n := 0
	for _, v := range vs {
		if v.rule == gapReadWriteBurst || v.rule == gapRefreshClose {
			continue
		}
		if n++; n <= 5 {
			t.Errorf("%s violated by %v", v.rule, v.cmd)
		}
	}
	if n > 5 {
		t.Errorf("... %d violations in all", n)
	}
}

// protocolTechs is every preset plus actBound: DDR4 with tRCD cut and the
// rank-level ACT windows stretched. The controller serves one request at a
// time, so on a preset consecutive ACTs are at least tRCD + 1 apart, and
// neither tRRD nor tFAW ever binds; on actBound both do.
func protocolTechs() []Tech {
	var techs []Tech
	for _, name := range TechNames() {
		tech, _ := TechByName(name)
		techs = append(techs, tech)
	}
	actBound := DDR4_2400()
	actBound.Name, actBound.TRCD, actBound.TRRD, actBound.TFAW = "DDR4-act-bound", 4, 8, 40
	return append(techs, actBound)
}

// TestDRAMProtocol checks each of protocolTechs' command logs against the
// timing rules over randomTrace: 20 seeds × 3 000 requests, 1 and 2
// channels, queue depth 32, refresh on. Only the two named exceptions may
// occur.
func TestDRAMProtocol(t *testing.T) {
	for _, tech := range protocolTechs() {
		for _, channels := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%dch", tech.Name, channels), func(t *testing.T) {
				var counts [5]int64
				for seed := int64(1); seed <= 20; seed++ {
					reqs := randomTrace(rand.New(rand.NewSource(seed)), 3000, &tech, channels)
					pr := checkProtocol(t, tech, Options{Channels: channels, QueueDepth: 32}, reqs)
					strictViolations(t, pr.violations())
					for k, n := range pr.counts {
						counts[k] += n
					}
				}
				// The log must hold every command kind, or a rule goes unchecked.
				for k, n := range counts {
					if n == 0 {
						t.Errorf("no %v logged", cmdKind(k))
					}
				}
				if reads, writes := counts[cmdRD], counts[cmdWR]; reads+writes != 20*3000 {
					t.Errorf("logged %d column commands, want %d", reads+writes, 20*3000)
				}
			})
		}
	}
}

// TestDRAMProtocolKnownGaps pins how often each named exception occurs on
// one fixed seed, per preset, one channel. The fix for each gap belongs to
// one model revision, which sets these counts to zero and removes the
// exceptions.
func TestDRAMProtocolKnownGaps(t *testing.T) {
	want := map[string][2]int{ // preset: {gapReadWriteBurst, gapRefreshClose}
		"DDR3": {326, 10}, "DDR4": {329, 15}, "LPDDR4": {600, 30}, "GDDR5": {205, 20}, "HBM2": {57, 20},
	}
	for _, name := range TechNames() {
		tech, _ := TechByName(name)
		reqs := randomTrace(rand.New(rand.NewSource(1)), 3000, &tech, 1)
		var got [2]int
		for _, v := range checkProtocol(t, tech, Options{QueueDepth: 32}, reqs).violations() {
			switch v.rule {
			case gapReadWriteBurst:
				got[0]++
			case gapRefreshClose:
				got[1]++
			}
		}
		if got != want[name] {
			t.Errorf("%s: gap counts {write over read burst, REF close} = %v, want %v", name, got, want[name])
		}
	}
}

// FuzzDRAMProtocol runs the checker over drawn traces: the seed, preset,
// channel count, queue depth, write share (of 256) and refresh on or off.
// The preset is drawn from protocolTechs. Refresh on uses a quarter of the
// preset's tREFI, so REFs meet traffic.
func FuzzDRAMProtocol(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), uint8(31), uint8(64), true)
	f.Add(int64(2), uint8(2), uint8(1), uint8(7), uint8(128), true)
	f.Add(int64(3), uint8(4), uint8(2), uint8(63), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, preset, channels, depth, writes uint8, refresh bool) {
		techs := protocolTechs()
		tech := techs[int(preset)%len(techs)]
		tech.TREFI /= 4
		nch := 1 + int(channels)%4
		rng := rand.New(rand.NewSource(seed))
		reqs := randomTrace(rng, 1000, &tech, nch)
		for _, r := range reqs {
			r.Write = rng.Intn(256) < int(writes)
		}
		opts := Options{Channels: nch, QueueDepth: 1 + int(depth)%128, DisableRefresh: !refresh}
		strictViolations(t, checkProtocol(t, tech, opts, reqs).violations())
	})
}

// TestProtocolCheckerRules feeds the checker hand-written logs that each
// break exactly one rule once, so every rule is shown to fire on its own.
func TestProtocolCheckerRules(t *testing.T) {
	tech := DDR4_2400()
	tech.TRC = 60 // above tRAS + tRP, so tRC can break alone
	act := func(at int64, bank int, row int64) command { return command{at, cmdACT, 0, bank, row} }
	pre := func(at int64, bank int) command { return command{at, cmdPRE, 0, bank, -1} }
	rd := func(at int64, bank int, row int64) command { return command{at, cmdRD, 0, bank, row} }
	wr := func(at int64, bank int, row int64) command { return command{at, cmdWR, 0, bank, row} }
	ref := func(at int64) command { return command{at: at, kind: cmdREF} }
	cases := []struct {
		rule string
		log  []command
	}{
		{ruleOnePerCycle, []command{act(10, 0, 1), act(16, 1, 1), pre(60, 0), pre(60, 1)}},
		{ruleRowState, []command{act(10, 0, 1), act(100, 0, 2)}},
		{ruleRowState, []command{rd(10, 0, 1)}},
		{ruleRowState, []command{act(10, 0, 1), rd(40, 0, 2)}},
		{ruleTRCD, []command{act(10, 0, 1), rd(20, 0, 1)}},
		{ruleTRAS, []command{act(10, 0, 1), pre(40, 0)}},
		{ruleTRP, []command{act(10, 0, 1), pre(60, 0), act(70, 0, 2)}},
		{ruleTRC, []command{act(10, 0, 1), pre(49, 0), act(66, 0, 2)}},
		{ruleTRRD, []command{act(10, 0, 1), act(12, 1, 1)}},
		{ruleTFAW, []command{act(10, 0, 1), act(16, 1, 1), act(22, 2, 1), act(28, 3, 1), act(34, 4, 1)}},
		{ruleTRTP, []command{act(10, 0, 1), rd(45, 0, 1), pre(50, 0)}},
		{ruleTWR, []command{act(10, 0, 1), wr(30, 0, 1), pre(60, 0)}},
		{ruleTWTR, []command{act(10, 0, 1), act(16, 1, 1), wr(33, 0, 1), rd(50, 1, 1)}},
		{ruleTCCD, []command{act(10, 0, 1), rd(30, 0, 1), rd(34, 0, 1)}},
		{ruleTRFC, []command{ref(10), act(100, 0, 1)}},
		{ruleDataBus, []command{act(10, 0, 1), act(16, 1, 1), rd(33, 0, 1), rd(35, 1, 1)}},
		{gapReadWriteBurst, []command{act(10, 0, 1), act(16, 1, 1), rd(30, 0, 1), wr(34, 1, 1)}},
		{gapRefreshClose, []command{act(10, 0, 1), ref(20)}},
		{gapRefreshClose, []command{act(10, 0, 1), pre(50, 0), ref(55)}},
	}
	for _, c := range cases {
		pc := newProtocolChecker(tech)
		for _, cmd := range c.log {
			pc.issue(cmd)
		}
		var rules []string
		for _, v := range pc.violations {
			rules = append(rules, v.rule)
		}
		if !slices.Equal(rules, []string{c.rule}) {
			t.Errorf("%v: violations %q, want only %q", c.log, rules, c.rule)
		}
	}
}
