package durable

// Tests for the parallel replay: a sequential reference replay it must match
// frame for frame, the goroutines it leaves behind (none), and frames larger
// than any fixed read window.

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/val"
)

// replayOutcome is what recovering a directory leaves: the recovered state
// (when recovery succeeds), every segment's size on disk afterwards, and for
// a refusal its class, segment and offset.
type replayOutcome struct {
	values    string // the recovered cells, encoded in id order
	lastSeq   uint64
	commits   uint64
	tornBytes int64
	sizes     []int64
	errClass  string // "" when recovery succeeds
	errSeg    int
	errAt     int64
}

func (o replayOutcome) String() string {
	if o.errClass != "" {
		return fmt.Sprintf("refused: %s in segment %d at offset %d; sizes %v", o.errClass, o.errSeg, o.errAt, o.sizes)
	}
	return fmt.Sprintf("seq %d, %d commits, torn %d, sizes %v, values %x", o.lastSeq, o.commits, o.tornBytes, o.sizes, o.values)
}

// encodeValues is the cells of values as one snapshot payload, in id order.
func encodeValues(t testing.TB, values map[uint64]val.Value) string {
	entries := make([]entry, 0, len(values))
	for id, v := range values {
		entries = append(entries, entry{ID: id, V: v})
	}
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.ID, b.ID) })
	return encodeEntries(t, entries)
}

// encodeEntries is entries, in id order, as one snapshot payload.
func encodeEntries(t testing.TB, entries []entry) string {
	t.Helper()
	b, err := appendRecord(nil, recSnapshot, 0, entries)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// recoveredValue is the value rec recovered for cell id, or nil.
func recoveredValue(rec *recovery, id uint64) any {
	v, _ := rec.values.get(id)
	return v.Load()
}

// referenceReplay is recovery as one loop over the frames of the segment
// images, in order: ReadFrame and decodeRecord applied frame by
// frame, a zero header or torn frame ending the final segment and refusing
// any other. It reads the images and writes nothing: the sizes it reports
// are the ones recovery must leave on disk.
func referenceReplay(t testing.TB, snapSeq uint64, snapValues map[uint64]val.Value, images [][]byte) replayOutcome {
	out := replayOutcome{lastSeq: snapSeq}
	values := map[uint64]val.Value{}
	for id, v := range snapValues {
		values[id] = v
	}
	for _, img := range images {
		out.sizes = append(out.sizes, int64(len(img)))
	}
	refuse := func(class string, seg int, at int64) replayOutcome {
		return replayOutcome{sizes: out.sizes, errClass: class, errSeg: seg, errAt: at}
	}
	for i, img := range images {
		if !bytes.HasPrefix(img, []byte(segmentMagic)) {
			t.Fatalf("segment %d: no magic", i)
		}
		off := int64(len(segmentMagic))
		r := bytes.NewReader(img[off:])
		for {
			var frame, payload []byte
			var err error
			if rest := img[off:]; len(rest) >= FrameHeaderLen && bytes.Equal(rest[:FrameHeaderLen], make([]byte, FrameHeaderLen)) {
				err = ErrTorn
			} else {
				frame, payload, err = ReadFrame(r)
			}
			if err == io.EOF {
				break
			}
			if errors.Is(err, ErrTorn) {
				if i != len(images)-1 {
					return refuse("corrupt frame mid-log", i, off)
				}
				end := off
				for j := int64(len(img)) - 1; j >= off; j-- {
					if img[j] != 0 {
						end = j + 1
						break
					}
				}
				out.tornBytes = end - off
				out.sizes[i] = off
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			kind, seq, writes, err := decodeRecord(payload, nil)
			if err != nil || kind != recCommit {
				return refuse("malformed record", i, off)
			}
			if seq > snapSeq {
				if seq != out.lastSeq+1 {
					return refuse("sequence gap", i, off)
				}
				for _, w := range writes {
					values[w.ID] = w.V
				}
				out.lastSeq = seq
				out.commits++
			}
			off += int64(len(frame))
		}
	}
	out.values = encodeValues(t, values)
	return out
}

var refusal = regexp.MustCompile(`(corrupt frame mid-log|malformed record|sequence gap) in (\S+) at offset (\d+)`)

// recoverOutcome runs recoverDir over dir and reports what it left.
func recoverOutcome(t testing.TB, dir string) replayOutcome {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, rerr := recoverDir(dir)
	var out replayOutcome
	for _, seg := range segs {
		st, err := os.Stat(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		out.sizes = append(out.sizes, st.Size())
	}
	if rerr != nil {
		m := refusal.FindStringSubmatch(rerr.Error())
		if m == nil {
			t.Fatalf("recoverDir: %v", rerr)
		}
		out.errClass = m[1]
		out.errSeg = slices.IndexFunc(segs, func(s segmentFile) bool { return s.path == m[2] })
		out.errAt, _ = strconv.ParseInt(m[3], 10, 64)
		return out
	}
	out.values = encodeEntries(t, rec.values.appendFrom(nil, 0))
	out.lastSeq, out.commits, out.tornBytes = rec.lastSeq, rec.commits, rec.tornBytes
	return out
}

// writeLog writes the segment images into dir (named for seqs 1, 1001, 2001,
// …, which recovery only sorts by) and, when snapSeq > 0, a snapshot of
// snapValues at that watermark; with snapSeq 0 it removes any snapshot.
// Images written over the same dir must be as many each time.
func writeLog(t testing.TB, dir string, snapSeq uint64, snapValues map[uint64]val.Value, images [][]byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, img := range images {
		if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(1+i*1000))), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if snapSeq == 0 {
		if err := os.Remove(filepath.Join(dir, snapshotName)); err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		return
	}
	entries := make([]entry, 0, len(snapValues))
	for id, v := range snapValues {
		entries = append(entries, entry{ID: id, V: v})
	}
	frame, err := snapshotFrame(snapSeq, entries)
	if err != nil {
		t.Fatal(err)
	}
	snap := append([]byte(snapshotMagic), frame...)
	if err := os.WriteFile(filepath.Join(dir, snapshotName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
}

// replayValues are the kinds of value a generated commit writes.
var replayValues = []func(r *rand.Rand) val.Value{
	func(r *rand.Rand) val.Value { return val.OfInt(r.Intn(2000) - 1000) },
	func(r *rand.Rand) val.Value { return val.OfInt64(r.Int63()) },
	func(r *rand.Rand) val.Value { return val.OfAny(strings.Repeat("s", r.Intn(40))) },
	func(r *rand.Rand) val.Value { return val.OfAny(bytes.Repeat([]byte{byte(r.Intn(256))}, r.Intn(300))) },
	func(r *rand.Rand) val.Value { return val.OfAny(r.Intn(2) == 0) },
	func(r *rand.Rand) val.Value { return val.OfAny(nil) },
}

// commitFrame is the whole frame of a commit record.
func commitFrame(t testing.TB, seq uint64, writes []entry) []byte {
	b, err := appendRecord(make([]byte, FrameHeaderLen), recCommit, seq, writes)
	if err != nil {
		t.Fatal(err)
	}
	return Frame(b)
}

// hugeID is a cell id whose uvarint takes five bytes, far past denseCells.
const hugeID = 1 << 34

// genLog is a dense log of n commits, seqs 1..n, of one to three writes
// each: over 24 cells, and one write in eight to an id at or just above
// denseCells or to hugeID, which a recovered-state table keeps in its map.
func genLog(t testing.TB, r *rand.Rand, n int) (frames [][]byte, writes [][]entry) {
	for seq := 1; seq <= n; seq++ {
		ws := make([]entry, 1+r.Intn(3))
		for i := range ws {
			id := uint64(r.Intn(24))
			if r.Intn(8) == 0 {
				id = []uint64{denseCells, denseCells + 1, hugeID}[r.Intn(3)]
			}
			ws[i] = entry{ID: id, V: replayValues[r.Intn(len(replayValues))](r)}
		}
		frames = append(frames, commitFrame(t, uint64(seq), ws))
		writes = append(writes, ws)
	}
	return frames, writes
}

// Kinds of damage a differential case does to one frame.
const (
	damageNone      = iota
	damageCRC       // one CRC byte flipped
	damageTruncate  // the segment ends halfway into the frame's payload
	damageZero      // the frame's header zeroed
	damageGap       // the frame carries the seq after its own
	damageMalformed // a trailing byte in the payload, CRC fixed up
	damageKinds
)

var damageNames = [damageKinds]string{"none", "crc", "truncate", "zero", "gap", "malformed"}

// assemble builds the segment images of frames split at cuts (cuts[i] is
// the index of segment i+1's first frame), with frame idx damaged as kind
// says and pad zero bytes after the final segment's data.
func assemble(t testing.TB, frames [][]byte, writes [][]entry, cuts []int, idx, kind, pad int) [][]byte {
	bounds := append(append([]int{0}, cuts...), len(frames))
	var images [][]byte
	for s := 0; s+1 < len(bounds); s++ {
		img := []byte(segmentMagic)
		for i := bounds[s]; i < bounds[s+1]; i++ {
			f := frames[i]
			if i == idx {
				f = slices.Clone(f)
				switch kind {
				case damageCRC:
					f[5] ^= 0x5a
				case damageTruncate:
					f = f[:FrameHeaderLen+(len(f)-FrameHeaderLen)/2]
				case damageZero:
					clear(f[:FrameHeaderLen])
				case damageGap:
					f = commitFrame(t, uint64(i+2), writes[i])
				case damageMalformed:
					f = Frame(append(f, 0))
				}
			}
			img = append(img, f...)
			if i == idx && kind == damageTruncate {
				break
			}
		}
		images = append(images, img)
	}
	last := len(images) - 1
	images[last] = append(images[last], make([]byte, pad)...)
	return images
}

// TestReplayMatchesReference: over logs of 0–300 commits in one to three
// segments, with and without a snapshot watermark inside the first, each
// damaged at every frame in turn in each of five ways (or, for the longest
// log, one way per frame), the parallel replay at GOMAXPROCS 1, 2, 3 and 8
// recovers exactly what referenceReplay does: the same cells, seq, commit
// count and torn bytes, the same segment sizes on disk, or the same refusal
// at the same offset.
func TestReplayMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := []int{1, 2, 3, 8}
	layouts := []struct {
		frames int
		cuts   []int
		pad    int
	}{
		{0, nil, 0},
		{0, nil, 64},
		{1, nil, 0},
		{2, []int{1}, 9},
		{5, nil, 300},
		{7, []int{3, 5}, 0},
		{40, []int{17}, 0},
		{60, []int{20, 41}, 100},
		{300, []int{96, 200}, 40},
	}
	r := rand.New(rand.NewSource(43))
	base := t.TempDir()
	cases := 0
	for li, lay := range layouts {
		frames, writes := genLog(t, r, lay.frames)
		firstSeg := lay.frames
		if len(lay.cuts) > 0 {
			firstSeg = lay.cuts[0]
		}
		// Every case damages one frame, or none (idx -1).
		type damage struct{ idx, kind int }
		damages := []damage{{-1, damageNone}}
		for idx := range lay.frames {
			for kind := damageCRC; kind < damageKinds; kind++ {
				if lay.frames <= 100 || kind == 1+idx%(damageKinds-1) {
					damages = append(damages, damage{idx, kind})
				}
			}
		}
		snaps := []uint64{0}
		if firstSeg/2 > 0 {
			snaps = append(snaps, uint64(firstSeg/2))
		}
		for _, snapSeq := range snaps {
			snapValues := map[uint64]val.Value{}
			for _, ws := range writes[:snapSeq] {
				for _, w := range ws {
					snapValues[w.ID] = w.V
				}
			}
			for _, d := range damages {
				images := assemble(t, frames, writes, lay.cuts, d.idx, d.kind, lay.pad)
				want := referenceReplay(t, snapSeq, snapValues, images)
				dir := filepath.Join(base, strconv.Itoa(li))
				for _, p := range procs {
					runtime.GOMAXPROCS(p)
					writeLog(t, dir, snapSeq, snapValues, images)
					if got := recoverOutcome(t, dir); !equalOutcome(got, want) {
						t.Fatalf("%d frames cut at %v, snapshot at %d, %s damage at frame %d, GOMAXPROCS %d:\n got %v\nwant %v",
							lay.frames, lay.cuts, snapSeq, damageNames[d.kind], d.idx, p, got, want)
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d recoveries matched the reference", cases)
}

func equalOutcome(a, b replayOutcome) bool {
	return a.values == b.values && a.lastSeq == b.lastSeq && a.commits == b.commits && a.tornBytes == b.tornBytes &&
		slices.Equal(a.sizes, b.sizes) && a.errClass == b.errClass && a.errSeg == b.errSeg && a.errAt == b.errAt
}

// TestRecoverLeavesNoGoroutine: recovering a clean, a torn, a mid-log
// corrupt and a gapped log with eight workers leaves as many goroutines as
// there were before, and when Wrap returns no replay worker is running.
func TestRecoverLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	r := rand.New(rand.NewSource(1))
	frames, writes := genLog(t, r, 300)
	cuts := []int{150}
	dir := t.TempDir()
	// Workers an earlier test's recovery joined may still be returning (at
	// GOMAXPROCS=1 they can wait a while for the processor): let them exit
	// before the count is taken.
	for deadline := time.Now().Add(5 * time.Second); replayWorkerStack() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	start := runtime.NumGoroutine()
	for _, c := range []struct {
		name      string
		idx, kind int
	}{
		{"clean", -1, damageNone},
		{"torn", 280, damageTruncate},
		{"mid-log corrupt", 100, damageCRC},
		{"gap", 120, damageGap},
	} {
		writeLog(t, dir, 0, nil, assemble(t, frames, writes, cuts, c.idx, c.kind, 0))
		_, err := recoverDir(dir)
		if (err == nil) != (c.kind == damageNone || c.kind == damageTruncate) {
			t.Fatalf("%s log: recoverDir = %v", c.name, err)
		}
		// A joined worker has called Done and is returning; give it the
		// moment that takes, no more.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() != start && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n != start {
			t.Fatalf("%s log: %d goroutines after recovery, %d before", c.name, n, start)
		}
	}

	writeLog(t, dir, 0, nil, assemble(t, frames, writes, cuts, -1, damageNone, 0))
	e := newTestEngine(t, "norec", dir, Options{Fsync: FsyncNever})
	defer e.WALClose()
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "(*replayRun).replay") {
		t.Fatalf("a replay worker is still running after Wrap returned:\n%s", stacks)
	}
}

// replayWorkerStack reports whether any goroutine is a segment replay
// worker, replaying or returning.
func replayWorkerStack() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*replayer).replaySegment.func1")
}

// TestRecoverFrameBeyondOldWindow: a commit of a 3 MiB []byte between small
// commits, larger than the 1 MiB read window recovery once had, recovers
// whole, in the final segment and in a sealed one.
func TestRecoverFrameBeyondOldWindow(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 3<<20/16)
	for _, sealed := range []bool{false, true} {
		t.Run(map[bool]string{false: "final", true: "sealed"}[sealed], func(t *testing.T) {
			dir := t.TempDir()
			// Sealed: the big frame crosses the 1 MiB segment size, so the
			// log rotates right after it and later commits land in a new
			// segment.
			segBytes := int64(8 << 20)
			if sealed {
				segBytes = 1 << 20
			}
			l := openTestLog(t, logConfig{dir: dir, policy: FsyncNever, segmentBytes: segBytes})
			commit := func(seq uint64, v val.Value) {
				b, err := appendRecord(append([]byte(nil), framePad[:]...), recCommit, seq, []entry{{ID: seq % 3, V: v}})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := l.Commit(seq, Frame(b)); err != nil {
					t.Fatal(err)
				}
			}
			commit(1, val.OfInt(1))
			commit(2, val.OfInt(2))
			commit(3, val.OfAny(big))
			commit(4, val.OfInt(4))
			commit(5, val.OfInt(5))
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if segs, _ := listSegments(dir); (len(segs) > 1) != sealed {
				t.Fatalf("%d segments, want the big frame sealed: %v", len(segs), sealed)
			}
			rec, err := recoverDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.lastSeq != 5 || rec.commits != 5 || rec.tornBytes != 0 {
				t.Fatalf("recovered seq %d, %d commits, torn %d; want 5, 5, 0", rec.lastSeq, rec.commits, rec.tornBytes)
			}
			if got, ok := recoveredValue(rec, 0).([]byte); !ok || !bytes.Equal(got, big) {
				t.Fatalf("cell 0 recovered %d bytes, want the %d-byte value", len(got), len(big))
			}
			if recoveredValue(rec, 1) != 4 || recoveredValue(rec, 2) != 5 {
				t.Fatalf("cells 1, 2 = %v, %v; want 4, 5", recoveredValue(rec, 1), recoveredValue(rec, 2))
			}
		})
	}
}

// transferCommits is the length of writeTransferLog's log.
const transferCommits = 200_000

// writeTransferLog writes into dir the log a restart of the bench's
// durable_group workload replays: transferCommits transfers between random
// accounts of 1024, each a commit of two ints, in two 4 MiB segments. It
// returns every account's last balance.
func writeTransferLog(t testing.TB, dir string) (balance []int) {
	const cells = 1024
	r := rand.New(rand.NewSource(1))
	balance = make([]int, cells)
	for i := range balance {
		balance[i] = 1000
	}
	writes := make([]entry, 2)
	writeTestLog(t, dir, transferCommits, func(seq uint64) []byte {
		from, to := r.Intn(cells), r.Intn(cells)
		amount := 1 + r.Intn(9)
		balance[from] -= amount
		balance[to] += amount
		writes[0] = entry{ID: uint64(from), V: val.OfInt(balance[from])}
		writes[1] = entry{ID: uint64(to), V: val.OfInt(balance[to])}
		return commitFrame(t, seq, writes)
	})
	return balance
}

// writeTestLog commits frame(seq) for seqs 1..commits to a log in dir.
func writeTestLog(t testing.TB, dir string, commits uint64, frame func(seq uint64) []byte) {
	l := openTestLog(t, logConfig{dir: dir, policy: FsyncNever})
	for seq := uint64(1); seq <= commits; seq++ {
		if _, err := l.Commit(seq, frame(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// recoverAlloc recovers dir and returns the recovery and the bytes it
// allocated.
func recoverAlloc(t *testing.T, dir string) (*recovery, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec, err := recoverDir(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return rec, after.TotalAlloc - before.TotalAlloc
}

// TestRecoverAllocBudget: recovering the two-segment transfer log, every
// account's last balance included, allocates less than 1 MiB in all,
// whatever GOMAXPROCS: a segment is read in place, not into a buffer of its
// size, its marks are bounded, and the recovered state is a table of one
// slot per cell, not a map.
func TestRecoverAllocBudget(t *testing.T) {
	dir := t.TempDir()
	balance := writeTransferLog(t, dir)
	if segs, _ := listSegments(dir); len(segs) != 2 {
		t.Fatalf("the transfer log has %d segments, want 2", len(segs))
	}
	rec, alloc := recoverAlloc(t, dir)
	if rec.commits != transferCommits || rec.lastSeq != transferCommits {
		t.Fatalf("recovered %d commits through seq %d, want %d", rec.commits, rec.lastSeq, transferCommits)
	}
	for id, want := range balance {
		if got := recoveredValue(rec, uint64(id)); got != want {
			t.Fatalf("account %d recovered %v, want %d", id, got, want)
		}
	}
	if alloc >= 1<<20 {
		t.Errorf("recovering %d commits allocated %d bytes, budget 1 MiB", rec.commits, alloc)
	}
	t.Logf("%d commits, %d bytes allocated", rec.commits, alloc)
}

// TestRecoverHugeID: a log whose only write is to a cell id of five varint
// bytes recovers that write, and its table costs no memory for the id.
func TestRecoverHugeID(t *testing.T) {
	dir := t.TempDir()
	writeTestLog(t, dir, 1, func(seq uint64) []byte {
		return commitFrame(t, seq, []entry{{ID: hugeID, V: val.OfInt(7)}})
	})
	rec, alloc := recoverAlloc(t, dir)
	if got := recoveredValue(rec, hugeID); got != 7 || rec.lastSeq != 1 {
		t.Fatalf("recovered %v at seq %d, want 7 at 1", got, rec.lastSeq)
	}
	if alloc >= 1<<20 {
		t.Errorf("recovering one write to cell %d allocated %d bytes, budget 1 MiB", uint64(hugeID), alloc)
	}
}

// TestCellTable: a table written across the bound of its slices, in two
// halves merged as replay's runs are, holds what a map does, and appendFrom
// lists it in id order from any id.
func TestCellTable(t *testing.T) {
	ids := []uint64{0, 1, 2, 5, 31, 32, 33, 100, denseCells - 2, denseCells - 1, denseCells, denseCells + 1, 1 << 21, hugeID}
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		var a, b cellTable
		want := map[uint64]val.Value{}
		for i := 0; i < 40; i++ {
			id, v := ids[r.Intn(len(ids))], replayValues[r.Intn(len(replayValues))](r)
			if i < 20 {
				a.put(id, v)
			} else {
				b.put(id, v)
			}
			want[id] = v
		}
		a.merge(&b)
		if got, ok := b.get(ids[0]); ok || len(b.appendFrom(nil, 0)) != 0 {
			t.Fatalf("merged table kept %v", got)
		}
		for _, id := range append(ids, 3, denseCells+2, hugeID+1) {
			got, ok := a.get(id)
			w, wok := want[id]
			if ok != wok || encodeEntries(t, []entry{{id, got}}) != encodeEntries(t, []entry{{id, w}}) {
				t.Fatalf("round %d: cell %d = %v, %v; want %v, %v", round, id, got.Load(), ok, w.Load(), wok)
			}
		}
		for _, from := range []uint64{0, 6, denseCells - 1, denseCells + 1, hugeID + 1} {
			var wantFrom []entry
			for id, v := range want {
				if id >= from {
					wantFrom = append(wantFrom, entry{ID: id, V: v})
				}
			}
			slices.SortFunc(wantFrom, func(a, b entry) int { return cmp.Compare(a.ID, b.ID) })
			if got := encodeEntries(t, a.appendFrom(nil, from)); got != encodeEntries(t, wantFrom) {
				t.Fatalf("round %d: appendFrom(%d) = %x, want %x", round, from, got, encodeEntries(t, wantFrom))
			}
		}
	}
}
