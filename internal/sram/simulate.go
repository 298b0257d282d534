package sram

import (
	"fmt"

	"scalesim/internal/config"
	"scalesim/internal/dram"
	"scalesim/internal/telemetry"
)

// Options configures the memory replay.
type Options struct {
	// WordBytes is the operand word size (default 4).
	WordBytes int
	// MaxRequestsPerCycle bounds how many line requests the interface
	// can issue per cycle (derived from interface bandwidth).
	MaxRequestsPerCycle int
	// StreamWindowWords is the double-buffered stream staging capacity:
	// the producer may run at most this many unconsumed words ahead of
	// the consumer (typically half the ifmap SRAM).
	StreamWindowWords int64
	// Sink, when set, receives every DRAM transaction with its final
	// Arrive and Done in trace order: fold by fold, each fold's
	// stationary, stream, then write lines in span order, not issue order
	// (fold f+1's reads are prefetched before fold f's writes drain). A
	// stream line the fold finished without issuing has zero Arrive/Done.
	Sink func(dram.Request)
	// Trace is the parent telemetry span (typically the memory stage's);
	// the replay opens "sram.stream" and "sram.drain" phase spans under
	// it. Nil — the default — records nothing at zero cost.
	Trace *telemetry.Span
}

// lineBytes is the DRAM request granularity; maxCycles aborts a runaway
// replay.
const (
	lineBytes       = 64
	maxCycles int64 = 1 << 40
)

func (o *Options) defaults() {
	if o.WordBytes <= 0 {
		o.WordBytes = 4
	}
	if o.MaxRequestsPerCycle <= 0 {
		o.MaxRequestsPerCycle = 1
	}
	if o.StreamWindowWords <= 0 {
		o.StreamWindowWords = 1 << 20
	}
}

// Result reports the outcome of replaying one schedule against the memory
// system.
type Result struct {
	ComputeCycles int64 // stall-free cycle count
	// TotalCycles is the layer's cycle count with memory stalls. Writes
	// are posted: the layer ends the cycle its last write is enqueued, and
	// the drain of its final writes overlaps whatever follows.
	TotalCycles   int64
	StallCycles   int64 // TotalCycles − ComputeCycles
	ReadRequests  int64
	WriteRequests int64
	ReadWords     int64
	WriteWords    int64
	QueueFullCyc  int64 // cycles the producer was blocked on a full queue
	DRAM          dram.Stats
	// ThroughputMBps is DRAM traffic divided by the run's wall time at
	// the memory clock.
	ThroughputMBps float64
	// SkippedCycles counts the dead cycles the replay jumped over instead
	// of ticking one by one. Purely diagnostic: it does not affect any
	// simulated statistic.
	SkippedCycles int64
}

// StallFraction is StallCycles / TotalCycles.
func (r *Result) StallFraction() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.StallCycles) / float64(r.TotalCycles)
}

// Simulate replays the schedule against the DRAM system, modeling double
// buffering (fold f+1 prefetches while fold f computes), a finite stream
// staging window, finite DRAM request queues and real round-trip latencies.
// The accelerator and memory controller are clocked 1:1.
//
// Writes are posted: the layer ends, and TotalCycles is taken, the cycle
// its last write is enqueued. Simulate still runs the controller until its
// queues drain, so DRAM stats and a Sink see every write complete, but the
// drain overlaps whatever follows and is not counted in the layer.
//
// The replay is event-driven: whenever a cycle can make no progress —
// waiting on stationary fills, stalled on stream data, counting down a
// drain phase, or blocked on a full request queue — the clock runs to the
// next cycle anything can change (the first request to leave a DRAM queue,
// the next known data-return time, or the end of the drain) instead of
// ticking through the dead cycles. The tests check every Result and
// transaction against a per-cycle oracle that shares no code with Simulate.
//
// Requests stream: each is built from a cursor over its fold's spans when
// it issues, in a slot recycled once the consumer has passed it (reads) or
// the controller has served it (writes), so memory follows the requests in
// flight, not the schedule's line count.
func Simulate(sched *Schedule, sys *dram.System, opts Options) (*Result, error) {
	opts.defaults()
	skippedBase := sys.SkippedCycles()
	// The staging window must cover at least one consume batch plus one
	// in-flight line, or the producer/consumer pair livelocks.
	var maxRate int64
	for i := range sched.Folds {
		if sched.Folds[i].ConsumeRate > maxRate {
			maxRate = sched.Folds[i].ConsumeRate
		}
	}
	lineWordsMin := int64(lineBytes / opts.WordBytes)
	if lineWordsMin < 1 {
		lineWordsMin = 1
	}
	if floor := 2*maxRate + 2*lineWordsMin; opts.StreamWindowWords < floor {
		opts.StreamWindowWords = floor
	}
	res := &Result{ComputeCycles: sched.ComputeCycles()}

	// Each fold's line count per request group, and its first index in
	// trace order, which lists folds in order: stationary, stream, then
	// writes.
	wordBytes := int64(opts.WordBytes)
	nf := len(sched.Folds)
	lines := make([]foldLines, nf)
	var traceLen int64
	for i := range sched.Folds {
		f, fl := &sched.Folds[i], &lines[i]
		fl.streamWords = f.StreamWords()
		res.ReadWords += f.StationaryWords() + fl.streamWords
		res.WriteWords += f.WriteWords()
		fl.stat = spanLines(f.Stationary, wordBytes, lineBytes)
		fl.stream = spanLines(f.Stream, wordBytes, lineBytes)
		fl.writes = spanLines(f.Writes, wordBytes, lineBytes)
		fl.base = traceLen
		traceLen += fl.stat + fl.stream + fl.writes
	}
	pool := slotPool{sink: opts.Sink}
	// reads holds the issued reads the consumer has not passed, in issue
	// order, which is also consumption order: fold cf's stationary lines,
	// its stream lines, then fold cf+1's.
	var reads slotList

	// Producer state: in-order issue across folds, stationary→stream,
	// with writes of completed folds interleaved ahead of future reads.
	// Each cursor yields its group's line addresses as they issue.
	issueFold, writeFold := 0, 0
	var stat, strm, wr lineCursor
	var strmWords int64 // stream words strm's issued lines account for
	cursor := func(spans []Span, n, base int64) lineCursor {
		return lineCursor{spans: spans, wb: wordBytes, lb: lineBytes, hi: -1, n: n, base: base}
	}
	openReads := func(i int) {
		if i < nf {
			f, fl := &sched.Folds[i], &lines[i]
			stat = cursor(f.Stationary, fl.stat, fl.base)
			strm = cursor(f.Stream, fl.stream, fl.base+fl.stat)
			strmWords = 0
		}
	}
	openWrites := func(i int) {
		if i < nf {
			fl := &lines[i]
			wr = cursor(sched.Folds[i].Writes, fl.writes, fl.base+fl.stat+fl.stream)
		}
	}
	openReads(0)
	openWrites(0)

	// Consumer (compute) state.
	cf := 0                   // fold being computed
	started := false          // fold cf started?
	statDone := int64(0)      // completed stationary requests of fold cf
	streamAvail := int64(0)   // stream lines of cf whose data has returned
	availWords := int64(0)    // stream words of cf whose data has returned
	consumedWords := int64(0) // stream words consumed by the array in cf
	streamPhaseLeft := int64(0)
	drainLeft := int64(0)
	// Window tracking: unconsumed issued stream words of the current and
	// next fold.
	issuedStreamWords := int64(0)

	// WS/IS outputs stream out of the array continuously; OS outputs
	// drain once at the end of the fold.
	pacedWrites := sched.Dataflow != config.OutputStationary

	stream := opts.Trace.Child("sram.stream", "phase")
	stream.SetAttr("folds", nf)

	now := int64(0)
	// advanceTo moves the accelerator clock and the DRAM system — clocked
	// 1:1 — to cycle t, letting the controller compress the dead cycles
	// in between into per-event work.
	advanceTo := func(t int64) {
		sys.AdvanceTo(t)
		now = t
	}
	// issue enqueues c's next line in a pooled slot; false when the
	// target queue is full.
	var retry, enqFailed bool
	issue := func(c *lineCursor, write bool) bool {
		s := pool.spare()
		s.Request = dram.Request{Arrive: now, Addr: c.addr(), Write: write}
		if !sys.Enqueue(&s.Request) {
			enqFailed = true
			return false
		}
		pool.free, s.idx = s.next, c.base+c.i
		c.next()
		retry = true
		if write {
			res.WriteRequests++
			pool.retiring.push(s)
		} else {
			res.ReadRequests++
			reads.push(s)
		}
		return true
	}
	// sleep advances time across a no-progress stretch. If the producer
	// issued this cycle, or the consumer opened a fold (which admits the
	// fold's paced writes), the producer may act differently next cycle,
	// so one cycle passes. Otherwise nothing the producer or the consumer
	// waits on changes before a request leaves a queue, so the clock runs
	// event by event to the first dequeue, or to limit. A producer parked
	// on a full queue would have retried (and failed) on every skipped
	// cycle, so QueueFullCyc counts each of them.
	sleep := func(limit int64) {
		from := now
		if retry {
			advanceTo(now + 1)
		} else {
			now = sys.AdvanceUntilDequeue(max(limit, now+1))
		}
		if enqFailed {
			res.QueueFullCyc += now - from - 1
		}
	}
	// stall sleeps until the awaited data returns (waitDone, when known).
	stall := func(waitDone int64) {
		limit := maxCycles + 1
		if waitDone > now && waitDone < limit {
			limit = waitDone
		}
		sleep(limit)
	}
	// passed reports whether the consumer may pass a read: its data is in.
	passed := func(s *slot) bool { return s != nil && s.Done > 0 && s.Done <= now }

	for cf < nf {
		if now > maxCycles {
			return nil, fmt.Errorf("sram: simulation exceeded %d cycles", maxCycles)
		}
		fl, f := &lines[cf], &sched.Folds[cf]

		// 1) Issue requests. Writes of finished folds go first (they
		// must leave the staging buffers); for WS/IS the current fold's
		// outputs also retire continuously, paced to the stream — a full
		// write queue backs the array up (writeBlocked).
		budget := opts.MaxRequestsPerCycle
		writeBlocked := false
		retry, enqFailed = false, false
		for budget > 0 {
			if writeFold < cf {
				if wr.i >= wr.n {
					writeFold++
					openWrites(writeFold)
					continue
				}
				if !issue(&wr, true) {
					break
				}
				budget--
				continue
			}
			if pacedWrites && writeFold == cf && started &&
				wr.i < pacedTarget(wr.n, consumedWords, fl.streamWords) {
				if !issue(&wr, true) {
					writeBlocked = true
					break
				}
				budget--
				continue
			}
			break
		}
		for budget > 0 && !enqFailed && issueFold < nf && issueFold <= cf+1 {
			if stat.i < stat.n {
				if !issue(&stat, false) {
					break
				}
				budget--
				continue
			}
			if strm.i < strm.n {
				if issuedStreamWords-consumedWordsIfCurrent(issueFold, cf, consumedWords) >= opts.StreamWindowWords {
					break // staging window full
				}
				// Account issued words with the same per-line
				// distribution the consumer uses, so the window
				// comparison stays exact.
				il := &lines[issueFold]
				cum := cumWords(il.streamWords, il.stream, strm.i)
				if !issue(&strm, false) {
					break
				}
				issuedStreamWords += cum - strmWords
				strmWords = cum
				budget--
				continue
			}
			// Fold fully issued; move to the next.
			issueFold++
			openReads(issueFold)
		}
		if enqFailed {
			res.QueueFullCyc++
		}

		// 2) Advance compute. The consumer passes fold cf's reads in
		// order; each is the head of reads once issued.
		if !started {
			// All stationary data must have returned.
			for statDone < fl.stat && passed(reads.head) {
				pool.put(reads.pop())
				statDone++
			}
			if statDone < fl.stat {
				var waitDone int64
				if reads.head != nil {
					waitDone = reads.head.Done
				}
				stall(waitDone)
				continue
			}
			started, retry = true, true
			streamPhaseLeft = f.StreamCycles
			// Non-stream portion of the pipeline (fill + drain).
			drainLeft = max(f.ComputeCycles-f.StreamCycles, 0)
		}
		// Stream phase: consume ConsumeRate words/cycle if the data is
		// here and the write path keeps up; otherwise stall until it is.
		if streamPhaseLeft > 0 {
			if streamAvail < fl.stream && passed(reads.head) {
				for streamAvail < fl.stream && passed(reads.head) {
					pool.put(reads.pop())
					streamAvail++
				}
				availWords = cumWords(fl.streamWords, fl.stream, streamAvail-1)
			}
			need := min(consumedWords+f.ConsumeRate, fl.streamWords)
			// Write back-pressure: the array can run only a bounded
			// number of un-retired output lines ahead.
			backlogged := pacedWrites && writeFold == cf && writeBlocked &&
				pacedTarget(wr.n, consumedWords, fl.streamWords)-wr.i > writeBacklogLines
			if !backlogged && (availWords >= need || streamAvail == fl.stream) {
				consumedWords = need
				streamPhaseLeft--
				advanceTo(now + 1)
				continue
			}
			// Stall: waiting on the next stream line's data return (or,
			// when backlogged, on the controller freeing write slots).
			var waitDone int64
			if !backlogged && streamAvail < fl.stream && reads.head != nil {
				waitDone = reads.head.Done
			}
			stall(waitDone)
			continue
		}
		if drainLeft > 0 {
			from := now
			sleep(min(now+drainLeft, maxCycles+1))
			drainLeft -= now - from
			continue
		}
		// Fold complete. Issued stream lines the consumer never passed
		// (the phase outran them) return to the pool once served. If the
		// producer still points into this fold, skip the rest of its
		// requests — the data is no longer needed (defensive; with exact
		// cum accounting completion implies full issue); a skipped line
		// still reaches the sink, with zero Arrive and Done.
		issued := fl.stream
		if issueFold == cf {
			issued = strm.i
		}
		for ; streamAvail < issued; streamAvail++ {
			pool.retiring.push(reads.pop())
		}
		if issueFold == cf {
			if strm.i < strm.n {
				issuedStreamWords += fl.streamWords - strmWords
			}
			for ; strm.i < strm.n; strm.next() {
				if pool.sink != nil {
					pool.emit(strm.base+strm.i, dram.Request{Addr: strm.addr()})
				}
			}
			issueFold++
			openReads(issueFold)
		}
		// Release the fold's stream words from the window.
		if fl.stream > 0 {
			issuedStreamWords -= fl.streamWords
		}
		if issuedStreamWords < 0 {
			issuedStreamWords = 0
		}
		// The next fold has passed and consumed nothing: none of this
		// fold's consumed words may credit the window.
		cf++
		started = false
		statDone, streamAvail, availWords, consumedWords = 0, 0, 0, 0
	}
	stream.SetAttr("queue_full_cycles", res.QueueFullCyc)
	stream.End()

	// Flush remaining writes; a full queue parks the producer until a
	// request leaves it, and these waits do not count toward QueueFullCyc.
	drain := opts.Trace.Child("sram.drain", "phase")
	for writeFold < nf {
		switch {
		case wr.i >= wr.n:
			writeFold++
			openWrites(writeFold)
		case issue(&wr, true):
		default:
			now = sys.AdvanceUntilDequeue(max(maxCycles+1, now+1))
		}
	}
	if _, err := sys.RunUntilDrained(maxCycles); err != nil {
		drain.End()
		return nil, err
	}
	drain.End()
	for pool.retiring.head != nil {
		pool.put(pool.retiring.pop()) // emits the last transactions
	}

	res.TotalCycles = now
	res.StallCycles = res.TotalCycles - res.ComputeCycles
	if res.StallCycles < 0 {
		res.StallCycles = 0
	}
	res.DRAM = sys.Stats()
	res.SkippedCycles = sys.SkippedCycles() - skippedBase
	res.ThroughputMBps = sys.BandwidthBytesPerSec() / 1e6
	return res, nil
}

// writeBacklogLines is the output staging capacity in lines: the array may
// run this many un-retired output lines ahead of the write queue before the
// pipeline backs up.
const writeBacklogLines = 32

// pacedTarget returns how many of the fold's write lines should have been
// issued once `consumed` of `total` stream words are processed.
func pacedTarget(writes, consumed, total int64) int64 {
	if total <= 0 {
		return writes
	}
	return writes * consumed / total
}

// consumedWordsIfCurrent returns the consumed stream words when the issuing
// fold is the computing fold (window frees as the array consumes); prefetch
// for future folds gets no credit.
func consumedWordsIfCurrent(issueFold, cf int, consumed int64) int64 {
	if issueFold == cf {
		return consumed
	}
	return 0
}

// foldLines is a fold's line count per request group, its stream words and
// its first index in trace order.
type foldLines struct {
	stat, stream, writes int64
	streamWords          int64
	base                 int64
}

// spanLines counts the lines covering spans.
func spanLines(spans []Span, wordBytes, lineBytes int64) int64 {
	var n int64
	for _, sp := range spans {
		n += sp.LineCount(wordBytes, lineBytes)
	}
	return n
}

// cumWords is the stream words consumed once line i (of n) has returned:
// the fold's total words spread evenly over its lines, so the last line
// lands exactly on total.
func cumWords(total, n, i int64) int64 { return total * (i + 1) / n }

// lineCursor walks the n line addresses of a span list in Span.Lines order
// without materializing them; i counts the lines passed and base is the
// group's first index in trace order.
type lineCursor struct {
	spans  []Span
	wb, lb int64
	row    int64 // next row of spans[0] to open
	lo, hi int64 // lines left in the open row
	i, n   int64
	base   int64
}

// addr returns the current line's byte address; valid while i < n.
func (c *lineCursor) addr() int64 {
	for c.lo > c.hi {
		sp := &c.spans[0]
		if c.row >= sp.Rows || sp.RowWords <= 0 {
			c.spans, c.row = c.spans[1:], 0
			continue
		}
		start := sp.Base + c.row*sp.RowStride
		lo := start * c.wb / c.lb
		if c.row > 0 && lo == c.hi {
			lo++ // adjacent rows may share a boundary line
		}
		c.lo, c.hi = lo, ((start+sp.RowWords)*c.wb-1)/c.lb
		c.row++
	}
	return c.lo * c.lb
}

// next passes the current line.
func (c *lineCursor) next() {
	c.lo++
	c.i++
}

// slot is one in-flight request of the replay and its index in trace order.
type slot struct {
	dram.Request
	idx  int64
	next *slot
}

// slotList is an intrusive FIFO of slots.
type slotList struct{ head, tail *slot }

func (l *slotList) push(s *slot) {
	s.next = nil
	if l.tail == nil {
		l.head = s
	} else {
		l.tail.next = s
	}
	l.tail = s
}

func (l *slotList) pop() *slot {
	s := l.head
	l.head = s.next
	if l.head == nil {
		l.tail = nil
	}
	return s
}

// slotPool recycles request slots, so a replay holds its peak in-flight
// requests rather than its line count. Slots live in chunks that never
// move, because the controller queue holds pointers to them; each chunk
// doubles the last, so the allocation count grows with log(peak).
type slotPool struct {
	free  *slot
	chunk int // size of the last chunk
	// retiring holds issued slots that may still sit in a controller
	// queue (writes, and reads the consumer skipped); each returns once
	// its Done is set.
	retiring slotList
	// sink, when set, receives retired requests in trace order: next is
	// the index it expects next, held a ring of requests keyed by index
	// modulo its length.
	sink func(dram.Request)
	next int64
	held []heldRequest
}

type heldRequest struct {
	dram.Request
	ok bool // occupied
}

// spare returns the free slot the next request is built in; the caller
// claims it (free = spare.next) once the request is enqueued.
func (p *slotPool) spare() *slot {
	for p.retiring.head != nil && p.retiring.head.Done > 0 {
		p.put(p.retiring.pop())
	}
	if p.free == nil {
		p.chunk = max(2*p.chunk, 256)
		chunk := make([]slot, p.chunk)
		for i := range chunk[1:] {
			chunk[i].next = &chunk[i+1]
		}
		p.free = &chunk[0]
	}
	return p.free
}

// put retires a served slot: its request is final, so it goes to the sink.
func (p *slotPool) put(s *slot) {
	if p.sink != nil {
		p.emit(s.idx, s.Request)
	}
	s.next = p.free
	p.free = s
}

// emit passes request idx to the sink in trace order: a request that
// retires ahead of its turn waits in the ring until those before it have
// gone. The ring doubles to reach idx, so it spans the widest reorder
// window, not the trace.
func (p *slotPool) emit(idx int64, r dram.Request) {
	for idx-p.next >= int64(len(p.held)) {
		old := p.held
		p.held = make([]heldRequest, max(2*len(old), 256))
		for i := p.next; i < p.next+int64(len(old)); i++ {
			p.held[i%int64(len(p.held))] = old[i%int64(len(old))]
		}
	}
	n := int64(len(p.held))
	p.held[idx%n] = heldRequest{r, true}
	for h := &p.held[p.next%n]; h.ok; h = &p.held[p.next%n] {
		h.ok = false
		p.sink(h.Request)
		p.next++
	}
}
