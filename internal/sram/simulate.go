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
	// LineBytes is the DRAM request granularity (default 64).
	LineBytes int
	// MaxRequestsPerCycle bounds how many line requests the interface
	// can issue per cycle (derived from interface bandwidth).
	MaxRequestsPerCycle int
	// StreamWindowWords is the double-buffered stream staging capacity:
	// the producer may run at most this many unconsumed words ahead of
	// the consumer (typically half the ifmap SRAM).
	StreamWindowWords int64
	// MaxCycles aborts runaway simulations (default 2^40).
	MaxCycles int64
	// CollectTrace records every DRAM transaction (arrival cycle,
	// address, type, round-trip) into Result.Trace.
	CollectTrace bool
	// DebugEvery, when positive, prints replay state every N cycles while
	// diagnosing stalls or livelocks in new schedules (exact under
	// ReferenceTickLoop; best-effort when the event engine skips cycles).
	DebugEvery int64
	// ReferenceTickLoop advances the replay — and the attached DRAM
	// system — one cycle per iteration instead of jumping between
	// events. Slow; retained as the oracle the event engine's
	// differential tests compare against — only tests set it.
	ReferenceTickLoop bool
	// Trace is the parent telemetry span (typically the memory stage's);
	// the replay opens "sram.stream" and "sram.drain" phase spans under
	// it. Nil — the default — records nothing at zero cost.
	Trace *telemetry.Span
}

// TraceEntry is one recorded DRAM transaction.
type TraceEntry struct {
	Arrive int64
	Done   int64
	Addr   int64
	Write  bool
}

func (o *Options) defaults() {
	if o.WordBytes <= 0 {
		o.WordBytes = 4
	}
	if o.LineBytes <= 0 {
		o.LineBytes = 64
	}
	if o.MaxRequestsPerCycle <= 0 {
		o.MaxRequestsPerCycle = 1
	}
	if o.StreamWindowWords <= 0 {
		o.StreamWindowWords = 1 << 20
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = 1 << 40
	}
}

// Result reports the outcome of replaying one schedule against the memory
// system.
type Result struct {
	ComputeCycles int64 // stall-free cycle count
	TotalCycles   int64 // with memory stalls
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
	// SkippedCycles counts the dead cycles the event engine jumped over
	// instead of ticking one by one (zero under ReferenceTickLoop).
	// Purely diagnostic: it does not affect any simulated statistic.
	SkippedCycles int64
	// Trace holds every transaction when Options.CollectTrace was set,
	// in issue order.
	Trace []TraceEntry
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
// The replay is event-driven: whenever a cycle can make no progress —
// waiting on stationary fills, stalled on stream data, counting down a
// drain phase, or blocked on a full request queue — the clock jumps
// straight to the next cycle anything can change (the DRAM controller's
// event horizon, the next known data-return time, or the end of the drain)
// instead of ticking through the dead cycles. Options.ReferenceTickLoop
// restores the per-cycle loop; both modes produce identical Results.
func Simulate(sched *Schedule, sys *dram.System, opts Options) (*Result, error) {
	opts.defaults()
	if opts.ReferenceTickLoop {
		// The oracle must be fully per-cycle: the DRAM system ticks cycle
		// by cycle too, exactly the pre-event-engine simulator. Restore
		// the caller's mode on return — the System outlives this call.
		defer func(prev bool) { sys.Opts.ReferenceTicks = prev }(sys.Opts.ReferenceTicks)
		sys.Opts.ReferenceTicks = true
	}
	skippedBase := sys.SkippedCycles()
	// The staging window must cover at least one consume batch plus one
	// in-flight line, or the producer/consumer pair livelocks.
	var maxRate int64
	for i := range sched.Folds {
		if sched.Folds[i].ConsumeRate > maxRate {
			maxRate = sched.Folds[i].ConsumeRate
		}
	}
	lineWordsMin := int64(opts.LineBytes / opts.WordBytes)
	if lineWordsMin < 1 {
		lineWordsMin = 1
	}
	if floor := 2*maxRate + 2*lineWordsMin; opts.StreamWindowWords < floor {
		opts.StreamWindowWords = floor
	}
	res := &Result{ComputeCycles: sched.ComputeCycles()}

	// Per-fold request lists, materialized lazily: only the folds between
	// the write drain cursor and the prefetch horizon (cf+1) are live, so
	// schedules with hundreds of thousands of folds stay cheap.
	type foldReqs struct {
		stat   []dram.Request
		stream []dram.Request
		// streamCum[i] is cumulative stream words after line i.
		streamCum []int64
		writes    []dram.Request
		live      bool
	}
	folds := make([]foldReqs, len(sched.Folds))
	var lineBuf []int64

	// Backing-array pools: released folds donate their request and
	// cumulative-word arrays to the next materialize, so the replay's
	// steady state allocates nothing per fold. Read-request arrays are
	// safe to recycle as soon as the fold retires (a read leaves the
	// controller queue when its column command issues, which fold
	// completion implies); write arrays may still be referenced by queued
	// posted writes, so they sit in retiredWrites until every entry has
	// issued (Done > 0).
	var reqFree [][]dram.Request
	var cumFree [][]int64
	var retiredWrites [][]dram.Request
	wordBytes, lineBytes := int64(opts.WordBytes), int64(opts.LineBytes)
	// spanRequests returns one request per line of the spans, in span
	// order. The array is sized once from the exact line count — the
	// smallest pooled array that holds it, else a fresh one of exactly
	// that capacity — so it never grows by append doubling.
	spanRequests := func(spans []Span, write bool) []dram.Request {
		var n int64
		for _, sp := range spans {
			n += sp.LineCount(wordBytes, lineBytes)
		}
		if n == 0 {
			return nil
		}
		var dst []dram.Request
		best := -1
		for i, s := range reqFree {
			if int64(cap(s)) >= n && (best < 0 || cap(s) < cap(reqFree[best])) {
				best = i
			}
		}
		if best >= 0 {
			last := len(reqFree) - 1
			dst = reqFree[best][:0]
			reqFree[best] = reqFree[last]
			reqFree = reqFree[:last]
		} else {
			dst = make([]dram.Request, 0, n)
		}
		if int64(cap(lineBuf)) < n {
			lineBuf = make([]int64, 0, n) // holds any one span of the group
		}
		for _, sp := range spans {
			lineBuf = sp.Lines(lineBuf[:0], wordBytes, lineBytes)
			for _, addr := range lineBuf {
				dst = append(dst, dram.Request{Addr: addr, Write: write})
			}
		}
		return dst
	}
	materialize := func(i int) *foldReqs {
		fr := &folds[i]
		if fr.live {
			return fr
		}
		f := &sched.Folds[i]
		fr.stat = spanRequests(f.Stationary, false)
		fr.stream = spanRequests(f.Stream, false)
		// Distribute the fold's stream words evenly over its lines
		// (boundary-straddling lines mean lines × lineWords overcounts;
		// the final line must land exactly on StreamWords so the fold
		// cannot complete before every line has been issued and served).
		total := f.StreamWords()
		n := int64(len(fr.stream))
		if m := len(cumFree); m > 0 && int64(cap(cumFree[m-1])) >= n {
			fr.streamCum = cumFree[m-1][:n]
			cumFree = cumFree[:m-1]
		} else {
			fr.streamCum = make([]int64, n)
		}
		for j := int64(0); j < n; j++ {
			fr.streamCum[j] = total * (j + 1) / n
		}
		fr.writes = spanRequests(f.Writes, true)
		fr.live = true
		return fr
	}
	release := func(i int) {
		if opts.CollectTrace {
			return // keep everything for the trace
		}
		fr := &folds[i]
		if fr.stat != nil {
			reqFree = append(reqFree, fr.stat)
		}
		if fr.stream != nil {
			reqFree = append(reqFree, fr.stream)
		}
		if fr.streamCum != nil {
			cumFree = append(cumFree, fr.streamCum)
		}
		if fr.writes != nil {
			retiredWrites = append(retiredWrites, fr.writes)
		}
		// Reclaim retired write arrays oldest-first once fully issued.
		for len(retiredWrites) > 0 {
			ws := retiredWrites[0]
			done := true
			for j := range ws {
				if ws[j].Done == 0 {
					done = false
					break
				}
			}
			if !done {
				break
			}
			reqFree = append(reqFree, ws)
			retiredWrites = retiredWrites[1:]
		}
		*fr = foldReqs{}
	}
	for i := range sched.Folds {
		f := &sched.Folds[i]
		res.ReadWords += f.StationaryWords() + f.StreamWords()
		res.WriteWords += f.WriteWords()
	}

	// Producer state: in-order issue across folds, stationary→stream,
	// with writes of completed folds interleaved ahead of future reads.
	issueFold, statIdx, streamIdx := 0, 0, 0
	writeFold, writeIdx := 0, 0

	// Consumer (compute) state.
	cf := 0                    // fold being computed
	started := false           // fold cf started?
	statDone := 0              // completed stationary requests of fold cf
	streamAvail := 0           // stream lines of cf whose data has returned
	consumedWords := int64(0)  // stream words consumed by the array in cf
	curStreamTotal := int64(0) // fold cf's stream words, cached while started
	streamPhaseLeft := int64(0)
	drainLeft := int64(0)
	// Window tracking: unconsumed issued stream words of the current and
	// next fold.
	issuedStreamWords := int64(0)

	// WS/IS outputs stream out of the array continuously; OS outputs
	// drain once at the end of the fold.
	pacedWrites := sched.Dataflow != config.OutputStationary

	engine := "event"
	if opts.ReferenceTickLoop {
		engine = "reference"
	}
	stream := opts.Trace.Child("sram.stream", "phase")
	stream.SetAttr("engine", engine)
	stream.SetAttr("folds", len(sched.Folds))

	now := int64(0)
	// advanceTo moves the accelerator clock and the DRAM system — clocked
	// 1:1 — to cycle t, letting the controller compress the dead cycles
	// in between into per-event work.
	advanceTo := func(t int64) {
		sys.AdvanceTo(t)
		now = t
	}
	// jumpTarget clamps a stall horizon: never past the abort budget (so
	// the MaxCycles check still fires), always at least one cycle
	// forward, and exactly one cycle under the reference loop.
	jumpTarget := func(t int64) int64 {
		if opts.ReferenceTickLoop {
			return now + 1
		}
		if lim := opts.MaxCycles + 1; t > lim {
			t = lim
		}
		if t < now+1 {
			t = now + 1
		}
		return t
	}

	for cf < len(sched.Folds) {
		if now > opts.MaxCycles {
			return nil, fmt.Errorf("sram: simulation exceeded %d cycles", opts.MaxCycles)
		}
		if opts.DebugEvery > 0 && now%opts.DebugEvery == 0 && now > 0 {
			fmt.Printf("sram-debug: now=%d cf=%d/%d started=%v phase=%d consumed=%d issued=%d streamAvail=%d issueFold=%d statIdx=%d streamIdx=%d writeFold=%d writeIdx=%d pending=%d\n",
				now, cf, len(sched.Folds), started, streamPhaseLeft, consumedWords,
				issuedStreamWords, streamAvail,
				issueFold, statIdx, streamIdx, writeFold, writeIdx, sys.Pending())
		}

		// 1) Issue requests. Writes of finished folds go first (they
		// must leave the staging buffers); for WS/IS the current fold's
		// outputs also retire continuously, paced to the stream — a full
		// write queue backs the array up (writeBlocked).
		budget := opts.MaxRequestsPerCycle
		writeBlocked := false
		issuedAny := false
		enqFailed := false
		for budget > 0 {
			if writeFold < cf {
				wr := materialize(writeFold)
				if writeIdx >= len(wr.writes) {
					release(writeFold)
					writeFold++
					writeIdx = 0
					continue
				}
				rq := &wr.writes[writeIdx]
				rq.Arrive = now
				if !sys.Enqueue(rq) {
					res.QueueFullCyc++
					enqFailed = true
					budget = 0
					break
				}
				res.WriteRequests++
				issuedAny = true
				writeIdx++
				budget--
				continue
			}
			if pacedWrites && writeFold == cf && started {
				fw := materialize(cf)
				target := pacedTarget(len(fw.writes), consumedWords, curStreamTotal)
				if writeIdx < target {
					rq := &fw.writes[writeIdx]
					rq.Arrive = now
					if !sys.Enqueue(rq) {
						res.QueueFullCyc++
						enqFailed = true
						writeBlocked = true
						budget = 0
						break
					}
					res.WriteRequests++
					issuedAny = true
					writeIdx++
					budget--
					continue
				}
			}
			break
		}
		for budget > 0 && issueFold < len(sched.Folds) && issueFold <= cf+1 {
			fr := materialize(issueFold)
			if statIdx < len(fr.stat) {
				rq := &fr.stat[statIdx]
				rq.Arrive = now
				if !sys.Enqueue(rq) {
					res.QueueFullCyc++
					enqFailed = true
					budget = 0
					break
				}
				res.ReadRequests++
				issuedAny = true
				statIdx++
				budget--
				continue
			}
			if streamIdx < len(fr.stream) {
				if issuedStreamWords-consumedWordsIfCurrent(issueFold, cf, consumedWords) >= opts.StreamWindowWords {
					break // staging window full
				}
				rq := &fr.stream[streamIdx]
				rq.Arrive = now
				if !sys.Enqueue(rq) {
					res.QueueFullCyc++
					enqFailed = true
					budget = 0
					break
				}
				// Account issued words with the same per-line
				// distribution the consumer uses, so the window
				// comparison stays exact.
				inc := fr.streamCum[streamIdx]
				if streamIdx > 0 {
					inc -= fr.streamCum[streamIdx-1]
				}
				issuedStreamWords += inc
				res.ReadRequests++
				issuedAny = true
				streamIdx++
				budget--
				continue
			}
			// Fold fully issued; move to the next.
			issueFold++
			statIdx, streamIdx = 0, 0
		}

		// stall advances time across a no-progress stretch. If the
		// producer issued something this cycle it may issue again next
		// cycle, so only a single cycle passes; otherwise nothing can
		// change before the DRAM controller's next event or the given
		// data-return cycle, and the clock jumps straight there. The
		// producer would have retried (and failed) a blocked enqueue on
		// every skipped cycle, so QueueFullCyc counts them to match the
		// reference loop's per-cycle accounting.
		stall := func(waitDone int64) {
			next := now + 1
			if !issuedAny {
				next = sys.NextEventCycle()
				if waitDone > now && waitDone < next {
					next = waitDone
				}
			}
			next = jumpTarget(next)
			if enqFailed {
				res.QueueFullCyc += next - now - 1
			}
			advanceTo(next)
		}

		// 2) Advance compute.
		fr := materialize(cf)
		if !started {
			// All stationary data must have returned.
			for statDone < len(fr.stat) && fr.stat[statDone].Done > 0 &&
				fr.stat[statDone].Done <= now {
				statDone++
			}
			ready := statDone == len(fr.stat) && issueFoldBeyondStationary(issueFold, cf, statIdx, len(fr.stat))
			if ready {
				started = true
				f := &sched.Folds[cf]
				streamPhaseLeft = f.StreamCycles
				// Non-stream portion of the pipeline (fill + drain).
				drainLeft = f.ComputeCycles - f.StreamCycles
				if drainLeft < 0 {
					drainLeft = 0
				}
				consumedWords = 0
				curStreamTotal = f.StreamWords()
				streamAvail = 0
			} else {
				var waitDone int64
				if statDone < len(fr.stat) {
					waitDone = fr.stat[statDone].Done
				}
				stall(waitDone)
				continue
			}
		}
		// Stream phase: consume ConsumeRate words/cycle if the data is
		// here and the write path keeps up; otherwise stall until it is.
		if streamPhaseLeft > 0 {
			for streamAvail < len(fr.stream) && fr.stream[streamAvail].Done > 0 &&
				fr.stream[streamAvail].Done <= now {
				streamAvail++
			}
			var availWords int64
			if streamAvail > 0 {
				availWords = fr.streamCum[streamAvail-1]
			}
			f := &sched.Folds[cf]
			need := consumedWords + f.ConsumeRate
			total := curStreamTotal
			if need > total {
				need = total
			}
			// Write back-pressure: the array can run only a bounded
			// number of un-retired output lines ahead.
			backlogged := false
			if pacedWrites && writeFold == cf {
				target := pacedTarget(len(fr.writes), consumedWords, total)
				backlogged = writeBlocked && target-writeIdx > writeBacklogLines
			}
			if !backlogged && (availWords >= need || streamAvail == len(fr.stream)) {
				consumedWords = need
				streamPhaseLeft--
				advanceTo(now + 1)
				continue
			}
			// Stall: waiting on the next stream line's data return (or,
			// when backlogged, on the controller freeing write slots).
			var waitDone int64
			if !backlogged && streamAvail < len(fr.stream) {
				waitDone = fr.stream[streamAvail].Done
			}
			stall(waitDone)
			continue
		}
		if drainLeft > 0 {
			if issuedAny {
				drainLeft--
				advanceTo(now + 1)
				continue
			}
			// Dead stretch: jump to the drain's end or the controller's
			// next event (which could unblock the producer), whichever
			// comes first.
			next := jumpTarget(min(now+drainLeft, sys.NextEventCycle()))
			if enqFailed {
				res.QueueFullCyc += next - now - 1
			}
			drainLeft -= next - now
			advanceTo(next)
			continue
		}
		// Fold complete: release its stream words from the window. If the
		// producer somehow still points into this fold, skip the rest of
		// its requests — the data is no longer needed (defensive; with
		// exact cum accounting completion implies full issue).
		if issueFold == cf {
			if n := len(fr.stream); streamIdx < n {
				already := int64(0)
				if streamIdx > 0 {
					already = fr.streamCum[streamIdx-1]
				}
				issuedStreamWords += fr.streamCum[n-1] - already
				streamIdx = n
			}
			issueFold++
			statIdx, streamIdx = 0, 0
		}
		if n := len(fr.stream); n > 0 {
			issuedStreamWords -= fr.streamCum[n-1]
		}
		if issuedStreamWords < 0 {
			issuedStreamWords = 0
		}
		cf++
		started = false
		statDone = 0
	}
	stream.SetAttr("queue_full_cycles", res.QueueFullCyc)
	stream.End()

	// Flush remaining writes, jumping between controller events while the
	// queue stays full (the reference loop retries every cycle; neither
	// counts these toward QueueFullCyc).
	drain := opts.Trace.Child("sram.drain", "phase")
	for writeFold < len(folds) {
		wr := materialize(writeFold)
		if writeIdx >= len(wr.writes) {
			release(writeFold)
			writeFold++
			writeIdx = 0
			continue
		}
		rq := &wr.writes[writeIdx]
		rq.Arrive = now
		if sys.Enqueue(rq) {
			res.WriteRequests++
			writeIdx++
		} else {
			advanceTo(jumpTarget(sys.NextEventCycle()))
		}
	}
	if _, err := sys.RunUntilDrained(opts.MaxCycles); err != nil {
		drain.End()
		return nil, err
	}
	drain.End()

	res.TotalCycles = now
	res.StallCycles = res.TotalCycles - res.ComputeCycles
	if res.StallCycles < 0 {
		res.StallCycles = 0
	}
	if opts.CollectTrace {
		for i := range folds {
			for _, group := range [][]dram.Request{folds[i].stat, folds[i].stream, folds[i].writes} {
				for j := range group {
					rq := &group[j]
					res.Trace = append(res.Trace, TraceEntry{
						Arrive: rq.Arrive,
						Done:   rq.Done,
						Addr:   rq.Addr,
						Write:  rq.Write,
					})
				}
			}
		}
	}
	res.DRAM = sys.Stats()
	res.SkippedCycles = sys.SkippedCycles() - skippedBase
	bytes := float64(res.DRAM.Reads+res.DRAM.Writes) * float64(sys.Tech.BurstBytes())
	if secs := float64(res.DRAM.Cycles) / (sys.Tech.ClockMHz * 1e6); secs > 0 {
		res.ThroughputMBps = bytes / secs / 1e6
	}
	return res, nil
}

// writeBacklogLines is the output staging capacity in lines: the array may
// run this many un-retired output lines ahead of the write queue before the
// pipeline backs up.
const writeBacklogLines = 32

// pacedTarget returns how many of the fold's write lines should have been
// issued once `consumed` of `total` stream words are processed.
func pacedTarget(writes int, consumed, total int64) int {
	if total <= 0 {
		return writes
	}
	return int(int64(writes) * consumed / total)
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

// issueFoldBeyondStationary reports whether fold cf's stationary requests
// have all been issued.
func issueFoldBeyondStationary(issueFold, cf, statIdx, statLen int) bool {
	if issueFold > cf {
		return true
	}
	if issueFold == cf {
		return statIdx >= statLen
	}
	return false
}
