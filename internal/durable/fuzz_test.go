package durable

import (
	"bytes"
	"testing"

	"repro/internal/val"
)

// fuzzSeedWrites are the payload shapes of the codec and WAL round-trip
// tables: the numeric lane, every boxed kind, and both registered codecs.
var fuzzSeedWrites = []Entry{
	{0, val.OfInt(42)}, {1, val.OfInt(-7)}, {2, val.OfInt64(1 << 40)},
	{3, val.OfAny(nil)}, {4, val.OfAny(true)}, {5, val.OfAny(false)},
	{6, val.OfAny("hello")}, {7, val.OfAny("")}, {8, val.OfAny(3.25)},
	{9, val.OfAny([]byte{1, 2, 3})}, {10, val.OfAny([]byte{})},
	{11, val.OfAny([]int{1, 2, 3, 100, 10_000})}, {12, val.OfAny([]int{9, 3, -20, 3})},
	{1 << 33, val.OfAny(pair{x: -3, y: 7})},
}

// fuzzSeedPayloads returns commit and snapshot payloads over prefixes of
// fuzzSeedWrites, plus a few malformed ones.
func fuzzSeedPayloads(t testing.TB) [][]byte {
	var out [][]byte
	for n := 0; n <= len(fuzzSeedWrites); n += 3 {
		c, err := appendCommitPayload(nil, uint64(n+1), fuzzSeedWrites[:n])
		if err != nil {
			t.Fatal(err)
		}
		s, err := appendSnapshotPayload(nil, uint64(n), fuzzSeedWrites[:n])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c, s)
	}
	return append(out, nil, []byte{recCommit}, []byte{recCommit, 1, 0xff, 0xff, 0xff, 0xff, 0x7f})
}

// FuzzReadFrame: any byte stream either fails to frame or yields a payload
// that frames back to exactly the bytes read, and every payload framed by
// frameAround reads back unchanged through a reused, dirty buffer. Neither
// may panic.
func FuzzReadFrame(f *testing.F) {
	for _, p := range fuzzSeedPayloads(f) {
		f.Add(p)
		f.Add(frameAround(append(make([]byte, frameHeaderLen), p...)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dirty := bytes.Repeat([]byte{0xa5}, 64)
		if payload, n, err := readFrameInto(bytes.NewReader(data), dirty); err == nil {
			again := frameAround(append(make([]byte, frameHeaderLen), payload...))
			if !bytes.Equal(again, data[:n]) {
				t.Fatalf("frame of %d bytes re-frames to %x, read %x", n, again, data[:n])
			}
		}
		framed := frameAround(append(make([]byte, frameHeaderLen), data...))
		payload, n, err := readFrameInto(bytes.NewReader(framed), dirty)
		if err != nil || n != int64(len(framed)) || !bytes.Equal(payload, data) {
			t.Fatalf("round trip of %x = (%x, %d, %v)", data, payload, n, err)
		}
	})
}

// FuzzDecodeCommit: decoding into a reused slice that still holds earlier
// entries returns exactly what a fresh DecodeCommitPayload returns, and the
// decoded values share no bytes with the input. Neither decode may panic.
func FuzzDecodeCommit(f *testing.F) {
	for _, p := range fuzzSeedPayloads(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, fresh, err := DecodeCommitPayload(data)
		dirty := append(make([]Entry, 0, 4), fuzzSeedWrites[:3]...)
		seq2, reused, err2 := decodeCommitInto(data, dirty)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("fresh err %v, reused err %v", err, err2)
		}
		if err != nil {
			return
		}
		want, err := appendCommitPayload(nil, seq, fresh)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] ^= 0xff // decoded values must not alias the input
		}
		got, err := appendCommitPayload(nil, seq2, reused)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reused decode %x, fresh decode %x", got, want)
		}
	})
}
