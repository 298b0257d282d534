// Package trace writes SCALE-Sim's cycle-accurate trace files: per-cycle
// SRAM demand traces and timestamped DRAM request traces, both in the CSV
// layout SCALE-Sim v2 established (cycle followed by the addresses demanded
// that cycle).
package trace

import (
	"bufio"
	"io"
	"strconv"
)

// SRAMWriter emits one row per cycle: "cycle, addr, addr, ...".
type SRAMWriter struct {
	w   *bufio.Writer
	err error
}

// NewSRAMWriter wraps w.
func NewSRAMWriter(w io.Writer) *SRAMWriter {
	return &SRAMWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Row writes one cycle's demanded addresses. Rows with no addresses are
// skipped (matching SCALE-Sim's sparse trace convention).
func (t *SRAMWriter) Row(cycle int64, addrs []int64) {
	if t.err != nil || len(addrs) == 0 {
		return
	}
	buf := t.w.AvailableBuffer()
	buf = strconv.AppendInt(buf, cycle, 10)
	for _, a := range addrs {
		buf = append(buf, ',', ' ')
		buf = strconv.AppendInt(buf, a, 10)
	}
	buf = append(buf, '\n')
	_, t.err = t.w.Write(buf)
}

// Close flushes and returns the first error encountered.
func (t *SRAMWriter) Close() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// DRAMRecord is one main-memory transaction in a trace.
type DRAMRecord struct {
	Cycle int64
	Addr  int64
	Write bool
	// Latency is the round-trip the memory model reported (0 before
	// simulation).
	Latency int64
}

// DRAMWriter emits "cycle, address, R|W, latency" rows.
type DRAMWriter struct {
	w   *bufio.Writer
	err error
}

// NewDRAMWriter wraps w and writes the header row.
func NewDRAMWriter(w io.Writer) *DRAMWriter {
	t := &DRAMWriter{w: bufio.NewWriterSize(w, 1<<16)}
	_, t.err = t.w.WriteString("cycle, address, type, latency\n")
	return t
}

// Record writes one transaction.
func (t *DRAMWriter) Record(r DRAMRecord) {
	if t.err != nil {
		return
	}
	kind := byte('R')
	if r.Write {
		kind = 'W'
	}
	buf := strconv.AppendInt(t.w.AvailableBuffer(), r.Cycle, 10)
	buf = strconv.AppendInt(append(buf, ',', ' '), r.Addr, 10)
	buf = strconv.AppendInt(append(buf, ',', ' ', kind, ',', ' '), r.Latency, 10)
	_, t.err = t.w.Write(append(buf, '\n'))
}

// Close flushes and returns the first error encountered.
func (t *DRAMWriter) Close() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}
