package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

func TestSRAMWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewSRAMWriter(&buf)
	w.Row(0, []int64{1, 2, 3})
	w.Row(1, nil) // skipped
	w.Row(5, []int64{42})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	if lines[0] != "0, 1, 2, 3" {
		t.Errorf("line 0: %q", lines[0])
	}
	if lines[1] != "5, 42" {
		t.Errorf("line 1: %q", lines[1])
	}
}

func TestDRAMWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewDRAMWriter(&buf)
	w.Record(DRAMRecord{Cycle: 10, Addr: 4096, Write: false, Latency: 33})
	w.Record(DRAMRecord{Cycle: 12, Addr: 8192, Write: true, Latency: 0})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "cycle, address, type, latency\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "10, 4096, R, 33") || !strings.Contains(out, "12, 8192, W, 0") {
		t.Errorf("rows wrong: %q", out)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > 1 {
		return 0, bytes.ErrTooLarge
	}
	return len(p), nil
}

func TestSRAMWriterPropagatesErrors(t *testing.T) {
	w := NewSRAMWriter(&failWriter{})
	big := make([]int64, 1<<15) // force flushes past the buffer
	for i := 0; i < 64; i++ {
		w.Row(int64(i), big)
	}
	if err := w.Close(); err == nil {
		t.Error("write error swallowed")
	}
}

// TestDRAMWriterMatchesFormat: Record writes exactly the bytes of the
// "%d, %d, %c, %d" row format, over edge values of every field.
func TestDRAMWriterMatchesFormat(t *testing.T) {
	var got, want bytes.Buffer
	w := NewDRAMWriter(&got)
	want.WriteString("cycle, address, type, latency\n")
	for _, v := range []int64{0, 7, math.MaxInt64} {
		for _, write := range []bool{false, true} {
			r := DRAMRecord{Cycle: v, Addr: math.MaxInt64 - v, Write: write, Latency: v}
			w.Record(r)
			kind := 'R'
			if write {
				kind = 'W'
			}
			fmt.Fprintf(&want, "%d, %d, %c, %d\n", r.Cycle, r.Addr, kind, r.Latency)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("rows:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}

func TestDRAMWriterRecordAllocs(t *testing.T) {
	w := NewDRAMWriter(io.Discard)
	r := DRAMRecord{Cycle: math.MaxInt64, Addr: math.MaxInt64, Write: true, Latency: math.MaxInt64}
	if n := testing.AllocsPerRun(1000, func() { w.Record(r) }); n != 0 {
		t.Errorf("Record allocates %v times per row", n)
	}
}
