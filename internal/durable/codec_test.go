package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
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
var goldenEntries = []entry{
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
		frame, payload, err := ReadFrame(bytes.NewReader(want))
		if err != nil || len(frame) != len(want) {
			t.Fatalf("%c: ReadFrame = %d bytes, %v", c.kind, len(frame), err)
		}
		kind, seq, entries, err := decodeRecord(payload, nil)
		if err != nil || kind != c.kind || seq != c.seq || len(entries) != len(goldenEntries) {
			t.Fatalf("%c: decodeRecord = %c, %d, %d entries, %v", c.kind, kind, seq, len(entries), err)
		}
		for i, e := range entries {
			w := goldenEntries[i]
			if e.ID != w.ID || !reflect.DeepEqual(e.V.Load(), w.V.Load()) {
				t.Errorf("%c entry %d decodes to %d=%#v, want %d=%#v", c.kind, i, e.ID, e.V.Load(), w.ID, w.V.Load())
			}
		}
	}
}

// paddedRecord is a commit at seq 1 writing an int, a string and a []int,
// as appendRecord writes it, and paddedFields are the byte offsets of its
// varints: its seq, entry count, first cell id, int value, string length
// and first []int delta.
const paddedRecord = "430103" + "0069d804" + "067305" + "68656c6c6f" + "0b7504696e747309050202" + "02c201d89a01"

var paddedFields = []struct {
	name string
	off  int
	err  string // what the decoder's refusal names
}{
	{"seq", 1, "seq"}, {"count", 2, "count"}, {"cell id", 3, "cell id"},
	{"int value", 5, "varint value"}, {"string length", 9, "string/bytes"}, {"ints delta", 24, "delta"},
}

// TestFrameCRC: the frame checksum is crc32.ChecksumIEEE for every length
// from 0 to 256 bytes, over random, all-zero and all-0xFF payloads, on both
// sides of the length where it hands over to hash/crc32.
func TestFrameCRC(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for n := 0; n <= 256; n++ {
		random := make([]byte, n)
		r.Read(random)
		for _, p := range [][]byte{random, make([]byte, n), bytes.Repeat([]byte{0xff}, n)} {
			if got, want := checksum(p), crc32.ChecksumIEEE(p); got != want {
				t.Fatalf("checksum(%x) = %08x, crc32.ChecksumIEEE = %08x", p, got, want)
			}
		}
	}
}

// padVarint returns rec with the varint at off spelled one byte longer: its
// last byte gains a continuation bit and a zero byte follows. A padded
// []int delta lengthens the codec body, whose length (at offset 22) grows
// with it.
func padVarint(rec []byte, off int) []byte {
	end := off
	for rec[end] >= 0x80 {
		end++
	}
	out := append(append([]byte(nil), rec[:end]...), rec[end]|0x80, 0)
	out = append(out, rec[end+1:]...)
	if off > 22 {
		out[22]++
	}
	return out
}

// TestRecordRefusesPaddedVarints: a record has one encoding, so a record
// whose seq, count, cell id, int value, string length or []int delta is
// zero-padded is malformed. The decoder refuses it, replay refuses a log
// holding it as a malformed record, and a follower's apply refuses it and
// leaves its log as it was.
func TestRecordRefusesPaddedVarints(t *testing.T) {
	golden, _ := hex.DecodeString(paddedRecord)
	want, err := appendRecord(nil, recCommit, 1, []entry{
		{0, val.OfInt(300)}, {6, val.OfAny("hello")}, {11, val.OfAny([]int{1, 2, 3, 100, 10_000})},
	})
	if err != nil || !bytes.Equal(golden, want) {
		t.Fatalf("golden record %x, appendRecord writes %x (%v)", golden, want, err)
	}
	for _, c := range paddedFields {
		rec := padVarint(golden, c.off)
		if _, _, _, err := decodeRecord(rec, nil); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: padded record %x: %v, want a refusal naming %q", c.name, rec, err, c.err)
		}
		dir := t.TempDir()
		seg := append([]byte(segmentMagic), Frame(append(make([]byte, FrameHeaderLen), rec...))...)
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := recoverDir(osFS{}, dir); err == nil || !strings.Contains(err.Error(), "malformed record") {
			t.Errorf("%s: replay of a padded record: %v, want a malformed record", c.name, err)
		}

		e := newTestEngine(t, "norec", t.TempDir(), Options{Fsync: FsyncNever})
		for i := 0; i < 12; i++ {
			e.NewCell(0)
		}
		logDir := e.DurabilityInfo().WALDir
		before := dirImage(t, logDir)
		if err := e.ApplyReplicated(Frame(append(make([]byte, FrameHeaderLen), rec...))); err == nil {
			t.Errorf("%s: padded record applied", c.name)
		}
		if err := e.WALSync(); err != nil {
			t.Fatal(err)
		}
		if after := dirImage(t, logDir); e.AppendedSeq() != 0 || !maps.Equal(after, before) {
			t.Errorf("%s: the refused record moved the log to seq %d", c.name, e.AppendedSeq())
		}
		if err := e.WALClose(); err != nil {
			t.Fatal(err)
		}
	}
}

// dirImage returns the contents of every file in dir by name.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := make(map[string]string, len(names))
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[n.Name()] = string(b)
	}
	return img
}
