package dram

// Closed-form bounds for the Analytical fidelity tier. The event-driven
// and reference simulators answer "how long does this traffic take" by
// replaying it; the bound below answers with pure arithmetic, provably
// never exceeding what either simulator reports.

// MinServiceCycles returns a lower bound on the cycles the memory system
// needs to transfer `lines` line-sized transactions over `channels`
// channels: by pigeonhole some channel carries at least
// ceil(lines/channels) of them, and each occupies that channel's data bus
// for BurstCycles command-clock cycles. Row activations, scheduling
// conflicts, queue back-pressure and refresh can only add time, so the
// FR-FCFS open-row controller, at any queue depth, reports at least this
// many cycles to serve the same lines.
func MinServiceCycles(t Tech, channels int, lines int64) int64 {
	if lines <= 0 {
		return 0
	}
	if channels < 1 {
		channels = 1
	}
	perChannel := (lines + int64(channels) - 1) / int64(channels)
	return perChannel * int64(t.BurstCycles())
}
