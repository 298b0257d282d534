package sram

import (
	"fmt"

	"scalesim/internal/config"
	"scalesim/internal/dram"
)

// referenceReplay is the per-cycle oracle the event engine (Simulate) is
// checked against, written from the replay's rules, not from its code. It
// lists every line of the layer up front with Span.Lines, indexes them in
// trace order and ticks sys, which must be fresh, one cycle at a time,
// through the replay and the final drain. It returns the Result and every
// request in trace order, as a Sink receives them. Each pass of the loop
// is one producer step, then one consumer step:
//
//   - The producer makes at most MaxRequestsPerCycle enqueues: due writes,
//     then reads in trace order, at most one fold ahead of the computing
//     fold. A failed enqueue ends the step and counts one QueueFullCyc.
//     The writes of a completed fold are due. WS/IS writes are paced to
//     the stream: k of a fold's n write lines are due once consumed·n/W >
//     k, where W is its stream words; OS writes wait for their fold.
//   - A stream line issues only while the staging window holds fewer than
//     StreamWindowWords words: the issued stream words of the computing
//     fold and the next, line i of n carrying W·(i+1)/n − W·i/n. While the
//     producer is on the computing fold, consumed words leave the window;
//     a prefetched fold's words wait until the computing fold completes.
//   - The consumer passes reads in issue order once their data is back. A
//     fold starts once its stationary lines are in, then streams for
//     StreamCycles consuming cycles of ConsumeRate words, each needing the
//     words up to its new total back. A stream cycle also stalls when the
//     step's paced write failed with more than 32 due lines waiting. Then
//     the fold drains for ComputeCycles − StreamCycles cycles.
//   - Completing a fold takes no time: its unissued stream lines keep zero
//     Arrive and Done, and the loop goes round again in the same cycle, so
//     the producer gets a second step (and QueueFullCyc a second count).
//   - After the last fold the remaining writes issue as fast as the queues
//     take them, with no budget; a full queue waits a cycle, uncounted.
//     The layer ends the cycle its last write is enqueued.
func referenceReplay(sched *Schedule, sys *dram.System, opts Options) (*Result, []dram.Request, error) {
	wordBytes, budget, window := int64(opts.WordBytes), opts.MaxRequestsPerCycle, opts.StreamWindowWords
	if wordBytes <= 0 {
		wordBytes = 4
	}
	if budget <= 0 {
		budget = 1
	}
	if window <= 0 {
		window = 1 << 20
	}
	// A window smaller than two consume batches plus two lines would let
	// the producer and the consumer wait on each other forever.
	lineWords := max(64/wordBytes, 1)
	for _, f := range sched.Folds {
		window = max(window, 2*f.ConsumeRate+2*lineWords)
	}

	// Trace order: fold by fold, stationary, stream, then write lines.
	// at[f] holds the first trace index of fold f's groups; at[nf] closes
	// the last fold.
	type groups struct{ stat, stream, writes int }
	nf := len(sched.Folds)
	at := make([]groups, nf+1)
	words := make([]int64, nf) // stream words per fold
	var trace []dram.Request
	var buf []int64
	res := &Result{}
	add := func(spans []Span, write bool) {
		for _, sp := range spans {
			buf = sp.Lines(buf[:0], wordBytes, 64)
			for _, a := range buf {
				trace = append(trace, dram.Request{Addr: a, Write: write})
			}
		}
	}
	for i, f := range sched.Folds {
		at[i].stat = len(trace)
		add(f.Stationary, false)
		at[i].stream = len(trace)
		add(f.Stream, false)
		at[i].writes = len(trace)
		add(f.Writes, true)
		for _, sp := range f.Stream {
			words[i] += sp.Rows * sp.RowWords
		}
		res.ComputeCycles += f.ComputeCycles
		res.ReadWords += f.StationaryWords() + words[i]
		res.WriteWords += f.WriteWords()
	}
	at[nf] = groups{len(trace), len(trace), len(trace)}
	streamLines := func(f int) int64 { return int64(at[f].writes - at[f].stream) }
	writeLines := func(f int) int64 { return int64(at[f+1].stat - at[f].writes) }

	now := int64(0)
	tick := func() { sys.Tick(); now++ }
	enqueue := func(i int) bool {
		trace[i].Arrive = now
		if !sys.Enqueue(&trace[i]) {
			trace[i].Arrive = 0
			return false
		}
		return true
	}
	arrived := func(i int) bool { return trace[i].Done > 0 && trace[i].Done <= now }

	// Consumer: computing fold cf, its next read ci, consumed words,
	// consuming cycles and drain cycles left.
	cf, ci, started := 0, at[0].stat, false
	var consumed, streamLeft, drainLeft int64
	// Producer: next read ri of fold rf, next write wi of fold wf, and the
	// stream lines issued per fold.
	rf, ri, wf, wi := 0, at[0].stat, 0, at[0].writes
	issued := make([]int64, nf)
	paced := sched.Dataflow != config.OutputStationary
	dueWrites := func() int64 { // paced write lines of cf due so far
		if words[cf] <= 0 {
			return writeLines(cf)
		}
		return writeLines(cf) * consumed / words[cf]
	}
	writeDue := func() bool { // is write wi due? Steps past issued folds.
		for wf < cf && wi == at[wf+1].stat {
			wf++
			wi = at[wf].writes
		}
		return wf < cf || paced && started && int64(wi-at[cf].writes) < dueWrites()
	}
	held := func() int64 { // unconsumed stream words in the window
		var w int64
		for f := cf; f <= rf && f < nf; f++ {
			if issued[f] > 0 {
				w += words[f] * issued[f] / streamLines(f)
			}
		}
		if rf == cf {
			w -= consumed
		}
		return w
	}
	// produce runs one producer step and reports whether one of cf's paced
	// writes failed to enqueue.
	produce := func() (writeBlocked bool) {
		n, failed := budget, false
		for n > 0 && writeDue() {
			if !enqueue(wi) {
				failed, writeBlocked = true, wf == cf
				break
			}
			wi, n = wi+1, n-1
			res.WriteRequests++
		}
		for n > 0 && !failed && rf < nf && rf <= cf+1 {
			if ri == at[rf].writes {
				rf++
				ri = at[rf].stat
				continue
			}
			stream := ri >= at[rf].stream
			if stream && held() >= window {
				break
			}
			if !enqueue(ri) {
				failed = true
				break
			}
			if stream {
				issued[rf]++
			}
			ri, n = ri+1, n-1
			res.ReadRequests++
		}
		if failed {
			res.QueueFullCyc++
		}
		return writeBlocked
	}

	for cf < nf {
		if now > 1<<40 {
			return nil, nil, fmt.Errorf("reference replay exceeded 2^40 cycles")
		}
		writeBlocked := produce()
		f := &sched.Folds[cf]
		if !started {
			for ci < at[cf].stream && arrived(ci) {
				ci++
			}
			if ci < at[cf].stream {
				tick()
				continue
			}
			started = true
			streamLeft, drainLeft = f.StreamCycles, max(f.ComputeCycles-f.StreamCycles, 0)
		}
		if streamLeft > 0 {
			for ci < at[cf].writes && arrived(ci) {
				ci++
			}
			here := words[cf]
			if n := streamLines(cf); n > 0 {
				here = words[cf] * int64(ci-at[cf].stream) / n
			}
			need := min(consumed+f.ConsumeRate, words[cf])
			backlogged := writeBlocked && dueWrites()-int64(wi-at[cf].writes) > 32
			if !backlogged && here >= need {
				consumed = need
				streamLeft--
			}
			tick()
			continue
		}
		if drainLeft > 0 {
			drainLeft--
			tick()
			continue
		}
		// Complete the fold; the producer skips what it has not issued.
		if rf == cf {
			rf++
			ri = at[rf].stat
		}
		cf++
		ci, started, consumed = at[cf].stat, false, 0
	}

	for wf < nf {
		switch {
		case wi == at[wf+1].stat:
			wf++
			wi = at[wf].writes
		case enqueue(wi):
			wi++
			res.WriteRequests++
		default:
			tick()
		}
	}
	res.TotalCycles = now
	for sys.Pending() > 0 {
		sys.Tick()
	}
	res.StallCycles = max(res.TotalCycles-res.ComputeCycles, 0)
	res.DRAM = sys.Stats()
	res.ThroughputMBps = sys.BandwidthBytesPerSec() / 1e6
	res.SkippedCycles = sys.SkippedCycles()
	return res, trace, nil
}
