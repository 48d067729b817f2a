package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/val"
)

// TestIntsCodecRoundTrip: the built-in "ints" codec (the one that carries
// the hash-set workload's buckets) round-trips sorted, unsorted, negative
// and empty slices exactly.
func TestIntsCodecRoundTrip(t *testing.T) {
	cases := [][]int{
		nil,
		{},
		{42},
		{1, 2, 3, 100, 10_000},
		{-5, -1, 0, 7},
		{9, 3, -20, 3}, // unsorted with a repeat: deltas go negative
	}
	for _, keys := range cases {
		b, err := appendValue(nil, val.OfAny(keys))
		if err != nil {
			t.Fatalf("%v: %v", keys, err)
		}
		got, rest, err := decodeValue(b)
		if err != nil {
			t.Fatalf("%v: %v", keys, err)
		}
		if len(rest) != 0 {
			t.Errorf("%v: %d trailing bytes", keys, len(rest))
		}
		dec := got.Load().([]int)
		if len(dec) != len(keys) {
			t.Fatalf("%v round-tripped to %v", keys, dec)
		}
		for i := range keys {
			if dec[i] != keys[i] {
				t.Fatalf("%v round-tripped to %v", keys, dec)
			}
		}
	}
}

// TestCodecUnknownNameRejected: a 'u' value whose codec name is not "ints"
// must fail decode with the name in the error — not panic, not silently
// drop the value — while the same body under "ints" decodes.
func TestCodecUnknownNameRejected(t *testing.T) {
	codecValue := func(name string) []byte {
		b := []byte{tagCodec}
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
		body := appendInts(nil, []int{1, 2})
		b = binary.AppendUvarint(b, uint64(len(body)))
		return append(b, body...)
	}
	if _, _, err := decodeValue(codecValue(intsCodec)); err != nil {
		t.Fatalf("ints value: %v", err)
	}
	for _, name := range []string{"test/nobody-knows-this", "Ints", ""} {
		if _, _, err := decodeValue(codecValue(name)); err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("decodeValue(codec %q) = %v, want an error naming it", name, err)
		}
	}
}

// TestCodecRecoveryRoundTrip: []int payloads written through a durable
// engine survive crash recovery — the full journal → recoverDir → NewCell
// substitution path, not just the value codec in isolation.
func TestCodecRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, "norec", dir, Options{})
	c := e.NewCell([]int(nil))
	th := e.Thread(0)
	want := []int{3, 11, -22, 40_000}
	if err := th.Run(func(tx engine.Txn) error { return tx.Write(c, want) }); err != nil {
		t.Fatal(err)
	}
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, "norec", dir, Options{})
	c2 := e2.NewCell([]int(nil))
	var got any
	if err := e2.Thread(0).RunReadOnly(func(tx engine.Txn) error {
		v, err := tx.Read(c2)
		got = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered %#v, want %#v", got, want)
	}
	if err := e2.WALClose(); err != nil {
		t.Fatal(err)
	}
}

// goldenEntries carry every value kind: both numeric tags, nil, both
// booleans, strings, a float64, byte slices and sorted, unsorted and empty
// []int, under one- and multi-byte cell ids.
var goldenEntries = []Entry{
	{0, val.OfInt(42)}, {1, val.OfInt(-7)}, {2, val.OfInt64(1 << 40)},
	{3, val.OfAny(nil)}, {4, val.OfAny(false)}, {5, val.OfAny(true)},
	{6, val.OfAny("hello")}, {7, val.OfAny("")}, {8, val.OfAny(3.25)},
	{9, val.OfAny([]byte{1, 2, 3})}, {10, val.OfAny([]byte{})},
	{11, val.OfAny([]int{1, 2, 3, 100, 10_000})}, {12, val.OfAny([]int{9, 3, -20, 3})},
	{13, val.OfAny([]int{})}, {1 << 33, val.OfInt(300)},
}

// TestRecordGolden pins the on-disk and on-wire bytes: a commit at seq 300
// and a snapshot at watermark 2^20 over goldenEntries frame to exactly the
// bytes the log format has always had, and those bytes decode back to
// goldenEntries, so logs written by earlier builds still recover.
func TestRecordGolden(t *testing.T) {
	const entriesHex = "0f00695401690d0249808080808040036e0430053106730568656c6c6f07730008660000000000000a400979030102030a79000b7504696e74730905020202c201d89a010c7504696e74730504120b2d2e0d7504696e74730100808080802069d804"
	for _, c := range []struct {
		kind byte
		seq  uint64
		hex  string
	}{
		{recCommit, 300, "65000000dd74cbb243ac02" + entriesHex},
		{recSnapshot, 1 << 20, "66000000b6bd092f53808040" + entriesHex},
	} {
		want, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		// A snapshot is framed as the snapshot file and a primary frame it.
		var got []byte
		if c.kind == recSnapshot {
			got, err = snapshotFrame(c.seq, goldenEntries)
		} else if got, err = appendRecord(make([]byte, FrameHeaderLen), c.kind, c.seq, goldenEntries); err == nil {
			got = Frame(got)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%c record frames to\n%x, want\n%x", c.kind, got, want)
		}
		payload, n, err := ReadFrame(bytes.NewReader(want))
		if err != nil || n != int64(len(want)) {
			t.Fatalf("%c: ReadFrame = %d bytes, %v", c.kind, n, err)
		}
		kind, seq, entries, err := DecodeRecord(payload, nil)
		if err != nil || kind != c.kind || seq != c.seq || len(entries) != len(goldenEntries) {
			t.Fatalf("%c: DecodeRecord = %c, %d, %d entries, %v", c.kind, kind, seq, len(entries), err)
		}
		for i, e := range entries {
			w := goldenEntries[i]
			if e.ID != w.ID || !reflect.DeepEqual(e.V.Load(), w.V.Load()) {
				t.Errorf("%c entry %d decodes to %d=%#v, want %d=%#v", c.kind, i, e.ID, e.V.Load(), w.ID, w.V.Load())
			}
		}
	}
}
