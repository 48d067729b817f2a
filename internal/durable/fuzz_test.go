package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/val"
)

// fuzzSeedWrites are the payload shapes of the codec and WAL round-trip
// tables: the numeric lane, every boxed kind and []int.
var fuzzSeedWrites = []entry{
	{0, val.OfInt(42)}, {1, val.OfInt(-7)}, {2, val.OfInt64(1 << 40)},
	{3, val.OfAny(nil)}, {4, val.OfAny(true)}, {5, val.OfAny(false)},
	{6, val.OfAny("hello")}, {7, val.OfAny("")}, {8, val.OfAny(3.25)},
	{9, val.OfAny([]byte{1, 2, 3})}, {10, val.OfAny([]byte{})},
	{11, val.OfAny([]int{1, 2, 3, 100, 10_000})}, {1 << 33, val.OfAny([]int{9, 3, -20, 3})},
}

// fuzzSeedPayloads returns commit and snapshot payloads over prefixes of
// fuzzSeedWrites, plus a few malformed ones.
func fuzzSeedPayloads(t testing.TB) [][]byte {
	var out [][]byte
	for n := 0; n <= len(fuzzSeedWrites); n += 3 {
		for _, kind := range []byte{recCommit, recSnapshot} {
			p, err := appendRecord(nil, kind, uint64(n+1), fuzzSeedWrites[:n])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
	}
	return append(out, nil, []byte{recCommit}, []byte{recCommit, 1, 0xff, 0xff, 0xff, 0xff, 0x7f})
}

// FuzzReadFrame: any byte stream either fails to frame or yields a frame
// that is exactly the bytes read and whose payload frames back to it, and
// parsing the same bytes in memory, as recovery does, gives the same frame
// or fails too. Every payload framed by Frame reads back unchanged. Nothing
// may panic.
func FuzzReadFrame(f *testing.F) {
	for _, p := range fuzzSeedPayloads(f) {
		f.Add(p)
		f.Add(Frame(append(make([]byte, FrameHeaderLen), p...)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, payload, err := ReadFrame(bytes.NewReader(data))
		if err == nil {
			again := Frame(append(make([]byte, FrameHeaderLen), payload...))
			if !bytes.Equal(again, frame) || !bytes.Equal(frame, data[:len(frame)]) {
				t.Fatalf("frame %x re-frames to %x, read %x", frame, again, data[:len(frame)])
			}
		}
		inPlace, size, perr := parseFrame(data)
		if (err == nil) != (perr == nil) || errors.Is(err, ErrTorn) != errors.Is(perr, ErrTorn) ||
			size != len(frame) || !bytes.Equal(inPlace, payload) {
			t.Fatalf("ReadFrame = (%x, %x, %v), parseFrame = (%x, %d, %v)", frame, payload, err, inPlace, size, perr)
		}
		framed := Frame(append(make([]byte, FrameHeaderLen), data...))
		frame, payload, err = ReadFrame(bytes.NewReader(framed))
		if err != nil || !bytes.Equal(frame, framed) || !bytes.Equal(payload, data) {
			t.Fatalf("round trip of %x = (%x, %x, %v)", data, frame, payload, err)
		}
	})
}

// FuzzDecodeRecord: a commit or snapshot record decodes into a reused slice
// that still holds earlier entries exactly as it does into a fresh one, and
// the decoded values share no bytes with the input. The encoding is
// canonical: a record that decodes re-encodes to exactly its input bytes.
// Neither decode may panic.
func FuzzDecodeRecord(f *testing.F) {
	for _, p := range fuzzSeedPayloads(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, seq, fresh, err := decodeRecord(data, nil)
		dirty := append(make([]entry, 0, 4), fuzzSeedWrites[:3]...)
		kind2, seq2, reused, err2 := decodeRecord(data, dirty)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("fresh err %v, reused err %v", err, err2)
		}
		if err != nil {
			return
		}
		want, err := appendRecord(nil, kind, seq, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, data) {
			t.Fatalf("%x decodes to a record that encodes as %x", data, want)
		}
		for i := range data {
			data[i] ^= 0xff // decoded values must not alias the input
		}
		got, err := appendRecord(nil, kind2, seq2, reused)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reused decode %x, fresh decode %x", got, want)
		}
	})
}

// FuzzReplayTail: a final segment of valid frames followed by arbitrary bytes
// and zero padding, as a crash can leave a preallocated segment. Recovery
// must not panic, and must recover exactly what referenceReplay does, refusal
// included. It either fails or replays the valid frames and stops no later
// than the first zero header; it cuts the segment where replay stopped,
// counts as torn exactly the bytes up to the last non-zero one past that
// point, and a second recovery finds the same log with nothing to cut.
func FuzzReplayTail(f *testing.F) {
	next := testFrame(4)
	f.Add(uint8(2), []byte(nil), uint16(0))
	f.Add(uint8(2), []byte(nil), uint16(4096))
	f.Add(uint8(3), next[:5], uint16(100))
	f.Add(uint8(3), next[:FrameHeaderLen+2], uint16(100))
	f.Add(uint8(3), next, uint16(30))
	f.Add(uint8(3), append(make([]byte, FrameHeaderLen), next...), uint16(0))
	f.Add(uint8(0), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff}, uint16(7))
	f.Add(uint8(3), commitFrame(f, 4, []entry{{ID: hugeID, V: val.OfInt(4)}}), uint16(40))
	f.Fuzz(func(t *testing.T, nframes uint8, tail []byte, pad uint16) {
		valid := uint64(nframes % 5)
		img := []byte(segmentMagic)
		for seq := uint64(1); seq <= valid; seq++ {
			img = append(img, testFrame(seq)...)
		}
		img = append(img, tail...)
		img = append(img, make([]byte, pad%8192)...)
		// ends[i] is where the i-th whole frame ends, up to the first zero
		// header: recovery may replay no frame past it.
		ends := frameEnds(img)
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		want := referenceReplay(t, 0, nil, [][]byte{img})
		rec := recoverOutcome(t, dir)
		if !equalOutcome(rec, want) {
			t.Fatalf("recovered %v, the reference replay %v", rec, want)
		}
		if rec.errClass != "" {
			return // a CRC-valid frame past the valid ones that is malformed or out of sequence
		}
		if rec.lastSeq < valid || rec.lastSeq >= uint64(len(ends)) {
			t.Fatalf("recovered through seq %d: %d valid frames, %d whole frames before any zero header", rec.lastSeq, valid, len(ends)-1)
		}
		end := ends[rec.lastSeq]
		torn := int64(0)
		for i := int64(len(img)) - 1; i >= end; i-- {
			if img[i] != 0 {
				torn = i + 1 - end
				break
			}
		}
		if rec.tornBytes != torn {
			t.Fatalf("tornBytes = %d, want %d", rec.tornBytes, torn)
		}
		if rec.sizes[0] != end {
			t.Fatalf("recovery left %d bytes, replay ended at %d", rec.sizes[0], end)
		}
		rec2, err := recoverDir(dir)
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		if rec2.lastSeq != rec.lastSeq || rec2.tornBytes != 0 {
			t.Fatalf("second recovery: seq %d, torn %d; first: seq %d", rec2.lastSeq, rec2.tornBytes, rec.lastSeq)
		}
	})
}
