package dram

import (
	"fmt"
	"math/bits"

	"scalesim/internal/telemetry"
)

// Request is one memory transaction submitted to the DRAM system.
type Request struct {
	// Arrive is the cycle at which the request enters the controller.
	Arrive int64
	// Addr is the byte address.
	Addr int64
	// Write distinguishes stores from loads.
	Write bool

	// Done is filled by the simulator: the cycle at which the read data
	// returned (or the write was issued to the bank).
	Done int64
}

// Latency returns the round-trip latency in cycles.
func (r *Request) Latency() int64 { return r.Done - r.Arrive }

// Options configures a System beyond its technology.
type Options struct {
	Channels   int
	QueueDepth int // per-channel request queue entries
	// DisableRefresh turns periodic refresh off (useful in unit tests).
	DisableRefresh bool
	// Trace is the parent telemetry span; RunUntilDrained records its
	// final drain as a "dram.drain" phase under it. Nil — the default —
	// records nothing at zero cost.
	Trace *telemetry.Span
}

// Stats aggregates the observable behaviour of the memory system.
type Stats struct {
	Reads         int64
	Writes        int64
	RowHits       int64
	RowMisses     int64 // row closed, ACT needed
	RowConflicts  int64 // different row open, PRE+ACT needed
	Refreshes     int64
	SumReadLat    int64
	MaxReadLat    int64
	DataBusCycles int64 // cycles the data bus carried beats
	Cycles        int64 // total simulated cycles
}

// AvgReadLatency returns the mean read round-trip in cycles.
func (s *Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.SumReadLat) / float64(s.Reads)
}

// RowHitRate returns hits / (hits+misses+conflicts).
func (s *Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// BusUtilization is the fraction of cycles the data bus was busy.
func (s *Stats) BusUtilization() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.DataBusCycles) / float64(s.Cycles)
}

// bank tracks one DRAM bank's row buffer and timing horizon.
type bank struct {
	openRow int64 // -1 when precharged
	nextACT int64 // earliest cycle an ACT may issue
	nextRD  int64
	nextWR  int64
	nextPRE int64
	lastACT int64
	// hits counts the reorder-window entries that target openRow.
	hits int
}

// pending is a queued request plus its decoded coordinates.
type pending struct {
	req  *Request
	bk   *bank // target bank, resolved at enqueue
	rank int
	bank int // flat bank index within rank
	row  int64
	seq  int64 // arrival order tiebreak
	// classified records that the request's first service attempt has
	// been counted as a hit, miss or conflict (each request is
	// classified exactly once).
	classified bool
}

// ring is a fixed-capacity circular buffer of pending requests in arrival
// order. Capacity is a power of two sized to the queue depth at New, so it
// never grows and removals shift only the shorter side.
type ring struct {
	buf  []*pending
	head int
	n    int
}

func (r *ring) at(i int) *pending { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring) set(i int, p *pending) { r.buf[(r.head+i)&(len(r.buf)-1)] = p }

func (r *ring) push(p *pending) {
	r.set(r.n, p)
	r.n++
}

// removeAt deletes entry i, preserving order by shifting whichever side of
// the ring is shorter.
func (r *ring) removeAt(i int) {
	if i <= r.n-1-i {
		for j := i; j > 0; j-- {
			r.set(j, r.at(j-1))
		}
		r.set(0, nil)
		r.head = (r.head + 1) & (len(r.buf) - 1)
	} else {
		for j := i; j < r.n-1; j++ {
			r.set(j, r.at(j+1))
		}
		r.set(r.n-1, nil)
	}
	r.n--
}

// channel is one memory channel: controller, queues and banks.
type channel struct {
	tech    *Tech
	opts    *Options
	banks   [][]bank // [rank][bank]
	queue   ring
	busFree int64 // cycle at which the data bus is next free
	// rank-level ACT history for tFAW (last 4 ACT cycles, ring).
	actHist [][4]int64
	// write→read turnaround horizon per rank.
	nextReadAfterWrite []int64
	refreshAt          int64
	refreshBusyUntil   int64
	seq                int64
	stats              Stats
	// free recycles pending entries removed from the queue so steady-state
	// operation allocates nothing per request.
	free []*pending
	// quiet memoizes the channel's horizon: while quietValid, ticking
	// before cycle `quiet` provably does nothing (refresh excepted — the
	// refresh check runs before the memo is consulted). Invalidated by
	// every state change: enqueue, command issue, refresh.
	quiet      int64
	quietValid bool
	// hits counts the reorder-window entries (the queue's first
	// reorderWindow) whose row is open in their bank, so a FR-FCFS pick
	// with none is the head in O(1). Enqueue, remove, ACT, PRE and refresh
	// keep it, and each bank's share, exact.
	hits int
	// future records that a request was enqueued with Arrive beyond the
	// clock; such a queue picks by the full window scan.
	future bool
}

// System is a multi-channel DRAM memory system.
type System struct {
	Tech Tech
	Opts Options

	channels []*channel
	now      int64
	// skipped counts cycles AdvanceTo jumped over without per-cycle
	// ticking — the event engine's work-saved metric.
	skipped int64

	lineBytes int64
	// decode geometry, cached off Tech.
	nch, nbk, nrank, nrows, linesPerRow int64
	// Shift/mask fast path for decode, valid when every factor is a
	// power of two (true for all built-in technologies).
	pow2                                             bool
	lineShift, chShift, colShift, bkShift, rankShift uint
	chMask, bkMask, rankMask, rowMask                int64
}

// log2of returns (log2(v), true) when v is a positive power of two.
func log2of(v int64) (uint, bool) {
	if v <= 0 || v&(v-1) != 0 {
		return 0, false
	}
	return uint(bits.TrailingZeros64(uint64(v))), true
}

// New builds a DRAM system. QueueDepth defaults to 64, Channels to 1.
func New(tech Tech, opts Options) (*System, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	if opts.Channels <= 0 {
		opts.Channels = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	s := &System{Tech: tech, Opts: opts, lineBytes: int64(tech.BurstBytes())}
	ringCap := 1
	for ringCap < opts.QueueDepth {
		ringCap <<= 1
	}
	s.nch = int64(opts.Channels)
	s.nbk = int64(tech.Banks())
	s.nrank = int64(tech.Ranks)
	s.nrows = int64(tech.Rows)
	s.linesPerRow = int64(tech.RowBytes()) / s.lineBytes
	if s.linesPerRow < 1 {
		s.linesPerRow = 1
	}
	lineS, ok1 := log2of(s.lineBytes)
	chS, ok2 := log2of(s.nch)
	colS, ok3 := log2of(s.linesPerRow)
	bkS, ok4 := log2of(s.nbk)
	rankS, ok5 := log2of(s.nrank)
	rowS, ok6 := log2of(s.nrows)
	if ok1 && ok2 && ok3 && ok4 && ok5 && ok6 {
		s.pow2 = true
		s.lineShift, s.chShift, s.colShift, s.bkShift, s.rankShift = lineS, chS, colS, bkS, rankS
		s.chMask, s.bkMask, s.rankMask = s.nch-1, s.nbk-1, s.nrank-1
		s.rowMask = int64(1)<<rowS - 1
	}
	for i := 0; i < opts.Channels; i++ {
		ch := &channel{tech: &s.Tech, opts: &s.Opts, refreshAt: int64(tech.TREFI)}
		ch.queue.buf = make([]*pending, ringCap)
		ch.banks = make([][]bank, tech.Ranks)
		ch.actHist = make([][4]int64, tech.Ranks)
		ch.nextReadAfterWrite = make([]int64, tech.Ranks)
		for r := range ch.banks {
			ch.banks[r] = make([]bank, tech.Banks())
			for b := range ch.banks[r] {
				ch.banks[r][b].openRow = -1
			}
			for k := 0; k < 4; k++ {
				ch.actHist[r][k] = -1 << 60
			}
		}
		s.channels = append(s.channels, ch)
	}
	return s, nil
}

// Now returns the current simulation cycle.
func (s *System) Now() int64 { return s.now }

// decode splits a byte address into channel/rank/bank/row coordinates using
// a row:rank:bank:column:channel interleaving (channel bits lowest, above
// the burst offset, so consecutive lines stripe across channels).
func (s *System) decode(addr int64) (ch, rank, bk int, row int64) {
	if s.pow2 {
		a := addr >> s.lineShift
		ch = int(a & s.chMask)
		a >>= s.chShift
		a >>= s.colShift // drop column bits
		bk = int(a & s.bkMask)
		a >>= s.bkShift
		rank = int(a & s.rankMask)
		a >>= s.rankShift
		row = a & s.rowMask
		return ch, rank, bk, row
	}
	a := addr / s.lineBytes
	ch = int(a % s.nch)
	a /= s.nch
	a /= s.linesPerRow // drop column bits
	bk = int(a % s.nbk)
	a /= s.nbk
	rank = int(a % s.nrank)
	a /= s.nrank
	row = a % s.nrows
	return ch, rank, bk, row
}

// channelOf returns addr's channel: decode's lowest field, so a full queue
// rejects a request before the rest of the address is split.
func (s *System) channelOf(addr int64) int {
	if s.pow2 {
		return int(addr >> s.lineShift & s.chMask)
	}
	return int(addr / s.lineBytes % s.nch)
}

// Enqueue admits a request. It returns false (and leaves the request
// untouched) when the channel queue is full. The request's Arrive field is
// clamped forward to the current cycle.
func (s *System) Enqueue(req *Request) bool {
	ch := s.channels[s.channelOf(req.Addr)]
	if ch.queue.n >= s.Opts.QueueDepth {
		return false
	}
	_, rank, bk, row := s.decode(req.Addr)
	if req.Arrive < s.now {
		req.Arrive = s.now
	}
	ch.future = ch.future || req.Arrive > s.now
	ch.seq++
	p := ch.getPending()
	p.req, p.rank, p.bank, p.row, p.seq = req, rank, bk, row, ch.seq
	p.bk = &ch.banks[rank][bk]
	ch.queue.push(p)
	if ch.queue.n <= reorderWindow {
		ch.count(p, 1)
	}
	ch.quietValid = false
	return true
}

func (ch *channel) getPending() *pending {
	if n := len(ch.free); n > 0 {
		p := ch.free[n-1]
		ch.free = ch.free[:n-1]
		*p = pending{}
		return p
	}
	return &pending{}
}

// Pending returns the total queued requests across channels.
func (s *System) Pending() int {
	n := 0
	for _, ch := range s.channels {
		n += ch.queue.n
	}
	return n
}

// Tick advances the system one cycle, possibly issuing one command per
// channel.
func (s *System) Tick() {
	s.now++
	for _, ch := range s.channels {
		ch.tick(s.now)
	}
}

// farFuture is the "no event scheduled" horizon sentinel.
const farFuture = int64(1) << 62

// SkippedCycles reports how many cycles the event engine advanced without
// per-cycle ticking. Zero on a memory-bound run means the engine never
// found a dead cycle — the perf contract the bench smoke test enforces.
func (s *System) SkippedCycles() int64 { return s.skipped }

// NextEventCycle returns the earliest cycle strictly after Now() at which
// any channel can change state: fire a refresh, come out of a refresh
// block, see a queued request arrive, or legally issue a PRE/ACT/column
// command. Cycles before the horizon are provably dead — ticking through
// them would change neither state nor statistics. Returns farFuture when
// every queue is empty and refresh is disabled.
func (s *System) NextEventCycle() int64 {
	next := farFuture
	for _, ch := range s.channels {
		if e := ch.nextEvent(s.now); e < next {
			next = e
		}
	}
	if next <= s.now {
		next = s.now + 1
	}
	return next
}

// stepTo jumps the clock so the next Tick executes cycle `next` (> now),
// crediting the jumped-over cycles as skipped.
func (s *System) stepTo(next int64) {
	if d := next - s.now - 1; d > 0 {
		s.now += d
		s.skipped += d
	}
	s.Tick()
}

// AdvanceTo advances simulation time to the target cycle, processing every
// intervening event exactly as the equivalent run of per-cycle Ticks
// would, but jumping over the dead cycles in between.
func (s *System) AdvanceTo(target int64) {
	for s.now < target {
		// Single-cycle advances (the replay's live cycles) need no
		// horizon computation — they are exactly one Tick.
		if s.now+1 == target {
			s.Tick()
			return
		}
		next := s.NextEventCycle()
		if next > target {
			next = target
		}
		s.stepTo(next)
	}
}

// AdvanceUntilDequeue advances event by event until a request leaves a
// queue or the clock reaches limit, and returns the new clock. Between two
// dequeues no queue gains room and no request gains a Done, so a producer
// blocked on either can sleep here instead of waking at every event. It is
// the event engine's: a per-cycle reference caller ticks instead.
func (s *System) AdvanceUntilDequeue(limit int64) int64 {
	for n := s.Pending(); s.now < limit && s.Pending() == n; {
		s.stepTo(min(s.NextEventCycle(), limit))
	}
	return s.now
}

// RunUntilDrained advances until no requests are pending or maxCycles
// elapses. It returns the number of cycles advanced.
func (s *System) RunUntilDrained(maxCycles int64) (int64, error) {
	sp := s.Opts.Trace.Child("dram.drain", "phase")
	if sp != nil {
		sp.SetAttr("pending", s.Pending())
		defer func() {
			st := s.Stats()
			sp.SetAttr("row_hits", st.RowHits)
			sp.SetAttr("row_misses", st.RowMisses)
			sp.End()
		}()
	}
	start := s.now
	for s.Pending() > 0 {
		if maxCycles >= 0 && s.now-start >= maxCycles {
			return s.now - start, fmt.Errorf("dram: not drained after %d cycles (%d pending)",
				maxCycles, s.Pending())
		}
		next := s.NextEventCycle()
		// Never advance beyond the budget boundary: a per-cycle loop
		// stops (and fires any refreshes) there too.
		if maxCycles >= 0 && next > start+maxCycles {
			next = start + maxCycles
		}
		s.stepTo(next)
	}
	return s.now - start, nil
}

// Stats sums the per-channel statistics.
func (s *System) Stats() Stats {
	var total Stats
	for _, ch := range s.channels {
		total.Reads += ch.stats.Reads
		total.Writes += ch.stats.Writes
		total.RowHits += ch.stats.RowHits
		total.RowMisses += ch.stats.RowMisses
		total.RowConflicts += ch.stats.RowConflicts
		total.Refreshes += ch.stats.Refreshes
		total.SumReadLat += ch.stats.SumReadLat
		total.DataBusCycles += ch.stats.DataBusCycles
		if ch.stats.MaxReadLat > total.MaxReadLat {
			total.MaxReadLat = ch.stats.MaxReadLat
		}
	}
	total.Cycles = s.now
	return total
}

// BandwidthBytesPerSec converts the observed data-bus traffic into bytes
// per second over the simulated interval.
func (s *System) BandwidthBytesPerSec() float64 {
	st := s.Stats()
	if st.Cycles == 0 {
		return 0
	}
	bytes := float64(st.Reads+st.Writes) * float64(s.Tech.BurstBytes())
	seconds := float64(st.Cycles) / (s.Tech.ClockMHz * 1e6)
	if seconds == 0 {
		return 0
	}
	return bytes / seconds
}

// tick advances one channel by one cycle: a refresh if one is due, else
// the picked request's next command if it is legal now.
func (ch *channel) tick(now int64) {
	if ch.nextRefresh(now) == now {
		ch.refresh(now)
	}
	if now < ch.refreshBusyUntil || ch.queue.n == 0 {
		return
	}
	// Quiet horizon: the last scan proved nothing can happen before
	// ch.quiet, and no state has changed since.
	if ch.quietValid && now < ch.quiet {
		return
	}
	// Requests yet to arrive arrive after now, so now < wake exactly when
	// now < readyCycle(pick).
	idx, wake := ch.schedule(now, true)
	if idx < 0 || now < wake {
		return
	}
	ch.quietValid = false // issuing changes state
	p := ch.queue.at(idx)
	switch bk := p.bk; {
	case bk.openRow == p.row:
		ch.issueColumn(now, p)
		ch.remove(idx)
	case bk.openRow < 0:
		ch.issueACT(now, p)
	default:
		ch.issuePRE(now, bk)
	}
}

// nextRefresh returns the first cycle at or after from at which a refresh
// fires: refreshAt, from itself when one is overdue, or farFuture with
// refresh off. It is the one refresh rule tick and nextEvent read.
func (ch *channel) nextRefresh(from int64) int64 {
	if ch.opts.DisableRefresh {
		return farFuture
	}
	return max(ch.refreshAt, from)
}

// refresh fires a periodic all-bank refresh at now: every open row closes
// and the channel is blocked for tRFC.
func (ch *channel) refresh(now int64) {
	ch.refreshAt += int64(ch.tech.TREFI)
	ch.refreshBusyUntil = now + int64(ch.tech.TRFC)
	ch.stats.Refreshes++
	ch.quietValid = false
	ch.hits = 0
	for r := range ch.banks {
		for b := range ch.banks[r] {
			bk := &ch.banks[r][b]
			bk.openRow, bk.hits = -1, 0
			bk.nextACT = max(bk.nextACT, ch.refreshBusyUntil)
		}
	}
}

// schedule is the step tick and nextEvent share. It picks the request the
// channel serves at cycle t and returns its queue index (-1 when no request
// has arrived) and the channel's wake cycle: the earliest cycle ≥ t at
// which the pick's next command is legal (readyCycle) or a queued request
// arrives and may change the pick. It memoizes the wake cycle in quiet.
//
// A request is classified as a row hit, miss or conflict the first time a
// tick picks it. With classify false (a horizon query) an unclassified
// pick wakes the channel at t with no memo: that first pick is an event of
// its own, since a refresh may close the row before the command is legal.
func (ch *channel) schedule(t int64, classify bool) (int, int64) {
	idx, futureArrive := ch.pickAt(t)
	if idx < 0 {
		ch.quiet, ch.quietValid = futureArrive, true
		return -1, futureArrive
	}
	p := ch.queue.at(idx)
	if !p.classified {
		if !classify {
			return idx, t
		}
		p.classified = true
		switch {
		case p.bk.openRow == p.row:
			ch.stats.RowHits++
		case p.bk.openRow < 0:
			ch.stats.RowMisses++
		default:
			ch.stats.RowConflicts++
		}
	}
	ch.quiet, ch.quietValid = min(max(ch.readyCycle(p), t), futureArrive), true
	return idx, ch.quiet
}

// readyCycle returns the earliest cycle the picked request's next command
// (column, ACT or PRE, depending on the bank's row state) is legal. It is
// the one legality rule for column and PRE commands; ACT's is actReady.
func (ch *channel) readyCycle(p *pending) int64 {
	bk := p.bk
	switch {
	case bk.openRow == p.row:
		if p.req.Write {
			return max(ch.busFree, bk.nextWR)
		}
		return max(ch.busFree, max(bk.nextRD, ch.nextReadAfterWrite[p.rank]))
	case bk.openRow < 0:
		return ch.actReady(p.rank, bk)
	default:
		return bk.nextPRE
	}
}

// actReady returns the earliest cycle an ACT may issue in bank bk: the
// bank's own horizon plus the rank-level tRRD (ACT-to-ACT) and tFAW (at
// most 4 ACTs per rolling window) constraints from the ACT history.
func (ch *channel) actReady(rank int, bk *bank) int64 {
	t := ch.tech
	hist := &ch.actHist[rank]
	latest := int64(-1 << 60)
	oldest := int64(1 << 60)
	for _, v := range hist {
		if v > latest {
			latest = v
		}
		if v < oldest {
			oldest = v
		}
	}
	return max(bk.nextACT, max(latest+int64(t.TRRD), oldest+int64(t.TFAW)))
}

// nextEvent returns the earliest cycle > now at which ticking this channel
// could do anything. It mirrors tick exactly: between two command issues
// the queue, bank states and timing horizons are all frozen, so the
// scheduler's pick is stable and the earliest legal issue cycle of the
// picked request can be read straight off the bank/bus horizons.
func (ch *channel) nextEvent(now int64) int64 {
	next := ch.nextRefresh(now + 1)
	if ch.queue.n == 0 {
		return next
	}
	// Commands resume once the refresh block clears.
	t := max(now+1, ch.refreshBusyUntil)
	// A previous scan may already have proven the channel quiet.
	if ch.quietValid {
		return min(next, max(ch.quiet, t))
	}
	_, wake := ch.schedule(t, false)
	return min(next, wake)
}

// pickAt chooses the queue index the FR-FCFS scheduler services at cycle
// t: the oldest row hit within the reorder window, else the oldest. The
// queue is kept in arrival (seq) order, so index 0 is always the oldest.
// It also returns the earliest Arrive > t among the scanned requests
// (farFuture if none): the pick is only guaranteed stable until that
// arrival. Unless a future arrival was ever enqueued, the hit count
// settles a hitless window without a scan, and a scan stops at the first
// hit.
func (ch *channel) pickAt(t int64) (int, int64) {
	n := ch.queue.n
	futureArrive := farFuture
	if n == 0 {
		return -1, futureArrive
	}
	if ch.hits == 0 && !ch.future {
		return 0, futureArrive // no row hit: the oldest request
	}
	limit := n
	if limit > reorderWindow {
		limit = reorderWindow
	}
	buf, mask := ch.queue.buf, len(ch.queue.buf)-1
	pos := ch.queue.head
	bestAny := -1
	for i := 0; i < limit; i++ {
		p := buf[pos]
		pos = (pos + 1) & mask
		if a := p.req.Arrive; a > t {
			if a < futureArrive {
				futureArrive = a
			}
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

// reorderWindow bounds how far ahead of the oldest request FR-FCFS may
// reorder, matching the limited associative search of real controllers
// (and keeping scheduling O(window) per cycle).
const reorderWindow = 64

// remove deletes the queue entry at idx (inside the reorder window) and
// recycles its pending slot. The entry behind the window slides into it.
func (ch *channel) remove(idx int) {
	p := ch.queue.at(idx)
	ch.count(p, -1)
	ch.queue.removeAt(idx)
	if ch.queue.n >= reorderWindow {
		ch.count(ch.queue.at(reorderWindow-1), 1)
	}
	ch.free = append(ch.free, p)
}

// count adds d to the hit counts when p targets its bank's open row.
func (ch *channel) count(p *pending, d int) {
	if p.bk.openRow == p.row {
		p.bk.hits += d
		ch.hits += d
	}
}

// closeRow precharges bk's row, dropping its window hits.
func (ch *channel) closeRow(bk *bank) {
	bk.openRow = -1
	ch.hits -= bk.hits
	bk.hits = 0
}

// issueACT activates p.row in p's bank.
func (ch *channel) issueACT(now int64, p *pending) {
	t, bk := ch.tech, p.bk
	bk.openRow = p.row
	for i := range min(ch.queue.n, reorderWindow) {
		if q := ch.queue.at(i); q.bk == bk {
			ch.count(q, 1)
		}
	}
	bk.lastACT = now
	bk.nextRD = now + int64(t.TRCD)
	bk.nextWR = now + int64(t.TRCD)
	bk.nextPRE = now + int64(t.TRAS)
	bk.nextACT = now + int64(t.TRC)
	// The new ACT replaces the oldest in the rank's history.
	hist := &ch.actHist[p.rank]
	minIdx := 0
	for k := 1; k < 4; k++ {
		if hist[k] < hist[minIdx] {
			minIdx = k
		}
	}
	hist[minIdx] = now
}

// issuePRE precharges bank bk.
func (ch *channel) issuePRE(now int64, bk *bank) {
	ch.closeRow(bk)
	bk.nextACT = max(bk.nextACT, now+int64(ch.tech.TRP))
}

// issueColumn issues p's RD or WR and completes the request.
func (ch *channel) issueColumn(now int64, p *pending) {
	t, bk := ch.tech, p.bk
	burst := int64(t.BurstCycles())
	// Read data lands at now+CL and write data at now+CWL (gapReadWriteBurst).
	ch.busFree = now + burst
	ch.stats.DataBusCycles += burst
	if p.req.Write {
		dataEnd := now + int64(t.CWL) + burst
		bk.nextWR = now + int64(t.TCCD)
		bk.nextRD = dataEnd + int64(t.TWTR)
		bk.nextPRE = max(bk.nextPRE, dataEnd+int64(t.TWR))
		ch.nextReadAfterWrite[p.rank] = max(ch.nextReadAfterWrite[p.rank], dataEnd+int64(t.TWTR))
		ch.stats.Writes++
		// Writes complete when accepted by the bank (posted writes).
		p.req.Done = now
		return
	}
	bk.nextRD = now + int64(t.TCCD)
	bk.nextWR = now + int64(t.TCCD)
	bk.nextPRE = max(bk.nextPRE, now+int64(t.TRTP))
	ch.stats.Reads++
	p.req.Done = now + int64(t.CL) + burst
	lat := p.req.Latency()
	ch.stats.SumReadLat += lat
	ch.stats.MaxReadLat = max(ch.stats.MaxReadLat, lat)
}

// SimulateTrace feeds a slice of requests (sorted by Arrive) through the
// system and drains it, returning the final stats. Requests that find the
// queue full are retried every cycle, modeling back-pressure on the
// producer; the returned stall count is the total cycles requests spent
// blocked at the queue head. It runs on the event engine: one retry per
// controller event instead of per cycle, with identical stats.
func (s *System) SimulateTrace(reqs []*Request) (Stats, int64, error) {
	var stalls int64
	i := 0
	for i < len(reqs) {
		r := reqs[i]
		if s.now < r.Arrive {
			// Advance time to the request's arrival.
			s.AdvanceTo(r.Arrive)
		}
		if s.Enqueue(r) {
			i++
			continue
		}
		// Queue full: the head request retries (and fails) every cycle
		// until the next controller event can free a slot.
		next := s.NextEventCycle()
		stalls += next - s.now
		s.stepTo(next)
	}
	if _, err := s.RunUntilDrained(-1); err != nil {
		return s.Stats(), stalls, err
	}
	return s.Stats(), stalls, nil
}
