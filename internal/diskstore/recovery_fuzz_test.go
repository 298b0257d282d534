package diskstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// fuzzLog is a store log built by FuzzStoreRecovery from its input, with
// what the harness knows about it.
type fuzzLog struct {
	data []byte
	// framed holds every payload the harness framed whole under each key,
	// before any damage. A torn frame can be completed by the bytes that
	// follow it.
	framed map[Key][][]byte
	// frames are the payload offset, length and key of every frame whose
	// header was written, intact or damaged.
	frames []fuzzFrame
	// bounds are the offsets where one op's bytes end and the next begin.
	bounds []int64
}

type fuzzFrame struct {
	k   Key
	off int64
	len int
}

// buildFuzzLog reads ops from in. Each op is a kind byte and a length byte
// followed by that many bytes: an intact frame (key byte, payload), a frame
// with the bit its first payload byte selects flipped, a frame torn where
// that byte selects, or raw bytes appended as they are.
func buildFuzzLog(in []byte) fuzzLog {
	l := fuzzLog{framed: map[Key][][]byte{}, bounds: []int64{0}}
	for len(in) >= 3 {
		kind, n := in[0]%4, int(in[1])
		in = in[2:]
		n = min(n, len(in))
		body := in[:n]
		in = in[n:]
		if kind == 3 {
			l.data = append(l.data, body...)
			l.bounds = append(l.bounds, int64(len(l.data)))
			continue
		}
		var k Key
		if len(body) > 0 {
			k[0] = body[0] % 8 // a small key space, so keys repeat
			body = body[1:]
		}
		l.framed[k] = append(l.framed[k], body)
		frame := frameEntry(k, body)
		if kind != 0 && len(body) > 0 {
			if sel := int(body[0]); kind == 1 {
				frame[sel*7%len(frame)] ^= 1 << (sel % 8)
			} else {
				frame = frame[:sel%len(frame)]
			}
		}
		if len(frame) >= headerSize {
			l.frames = append(l.frames, fuzzFrame{k, int64(len(l.data) + headerSize), len(body)})
		}
		l.data = append(l.data, frame...)
		l.bounds = append(l.bounds, int64(len(l.data)))
	}
	return l
}

// buildFuzzSnapshot renders index.snap from in, with a valid CRC: none when
// in is empty; magic and in[1:] as they are when in[0] is 0xff; otherwise
// upTo is the op boundary in[0] selects (or past the log's end), and each
// following byte pair adds the record of one frame, kept exact, given
// another frame's key, shifted by one byte or shortened by one.
func buildFuzzSnapshot(l fuzzLog, in []byte) []byte {
	if len(in) == 0 {
		return nil
	}
	snap := []byte(snapMagic)
	if in[0] == 0xff {
		snap = append(snap, in[1:]...)
		return binary.LittleEndian.AppendUint32(snap, crc32.Checksum(snap, crcTable))
	}
	bounds := append(l.bounds, int64(len(l.data))+7)
	upTo := bounds[int(in[0])%len(bounds)]
	var ents []byte
	for in = in[1:]; len(in) >= 2 && len(l.frames) > 0; in = in[2:] {
		f := l.frames[int(in[0])%len(l.frames)]
		switch in[1] % 4 {
		case 1:
			f.k = l.frames[(int(in[0])+1)%len(l.frames)].k
		case 2:
			f.off++
		case 3:
			f.len = max(f.len-1, 0)
		}
		ents = append(ents, f.k[:]...)
		ents = binary.LittleEndian.AppendUint64(ents, uint64(f.off))
		ents = binary.LittleEndian.AppendUint32(ents, uint32(f.len))
	}
	snap = binary.LittleEndian.AppendUint64(snap, uint64(upTo))
	snap = binary.LittleEndian.AppendUint64(snap, uint64(len(ents)/snapEntSize))
	snap = append(snap, ents...)
	return binary.LittleEndian.AppendUint32(snap, crc32.Checksum(snap, crcTable))
}

// FuzzStoreRecovery opens a store over a log of harness-framed entries
// (valid CRCs), damaged frames and raw bytes, plus an optional index.snap
// whose CRC the harness computes. Open must not fail or panic, Verify must
// return no error, every Get hit must return a payload that was framed
// whole under its key, and after Close a second Open must answer every key
// the same way.
func FuzzStoreRecovery(f *testing.F) {
	f.Add([]byte{0, 4, 1, 'a', 'b', 'c', 0, 3, 2, 'x', 'y'}, []byte{})
	f.Add([]byte{0, 4, 1, 'a', 'b', 'c', 1, 4, 2, 'd', 'e', 'f', 0, 3, 3, 'g', 'h'}, []byte{})
	f.Add([]byte{0, 4, 1, 'a', 'b', 'c', 2, 5, 1, 30, 'x', 'y', 'z'}, []byte{})
	f.Add([]byte{3, 5, 's', 'S', 'l', '1', 0, 0, 4, 1, 'a', 'b', 'c'}, []byte{})
	f.Add([]byte{0, 4, 1, 'a', 'b', 'c', 0, 3, 2, 'x', 'y'}, []byte{2, 0, 0, 1, 0})
	f.Add([]byte{0, 4, 1, 'a', 'b', 'c', 0, 3, 2, 'x', 'y'}, []byte{1, 0, 1, 1, 2})
	f.Add([]byte{0, 4, 1, 'a', 'b', 'c', 0, 3, 1, 'x', 'y'}, []byte{5, 0, 0, 1, 3})
	f.Add([]byte{0, 4, 1, 'a', 'b', 'c'}, []byte{0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x40})
	f.Fuzz(func(t *testing.T, logIn, snapIn []byte) {
		l := buildFuzzLog(logIn)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), l.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if snap := buildFuzzSnapshot(l, snapIn); snap != nil {
			if err := os.WriteFile(filepath.Join(dir, snapName), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if _, err := s.Verify(); err != nil {
			t.Fatalf("Verify: %v", err)
		}
		answers := func(s *Store) map[Key][]byte {
			got := map[Key][]byte{}
			for i := range 8 {
				k := Key{byte(i)}
				p, ok := s.Get(k)
				if !ok {
					continue
				}
				if !slices.ContainsFunc(l.framed[k], func(b []byte) bool { return bytes.Equal(b, p) }) {
					t.Fatalf("Get(%d) = %q, a payload never framed under that key", i, p)
				}
				got[k] = p
			}
			return got
		}
		first := answers(s)
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		s, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer s.Close()
		second := answers(s)
		for i := range 8 {
			k := Key{byte(i)}
			p, hit1 := first[k]
			q, hit2 := second[k]
			if hit1 != hit2 || !bytes.Equal(p, q) {
				t.Errorf("key %d: first Open answered %q (hit %v), the second %q (hit %v)", i, p, hit1, q, hit2)
			}
		}
	})
}
