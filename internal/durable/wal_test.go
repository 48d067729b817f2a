package durable

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/val"
)

// TestValueCodecRoundTrip: every WAL-serializable payload round-trips with
// its exact dynamic type; unsupported payloads are rejected at encode time.
func TestValueCodecRoundTrip(t *testing.T) {
	vals := []val.Value{
		val.OfInt(42), val.OfInt(-7), val.OfInt(0),
		val.OfInt64(1 << 40), val.OfInt64(-9),
		val.OfAny(nil), val.OfAny(true), val.OfAny(false),
		val.OfAny("hello"), val.OfAny(""),
		val.OfAny(3.25), val.OfAny([]byte{1, 2, 3}), val.OfAny([]byte{}),
	}
	var b []byte
	for _, v := range vals {
		var err error
		if b, err = appendValue(b, v); err != nil {
			t.Fatalf("appendValue(%v): %v", v.Load(), err)
		}
	}
	rest := b
	for _, want := range vals {
		var got val.Value
		var err error
		got, rest, err = decodeValue(rest)
		if err != nil {
			t.Fatalf("decodeValue: %v", err)
		}
		switch w := want.Load().(type) {
		case []byte:
			g, ok := got.Load().([]byte)
			if !ok || string(g) != string(w) {
				t.Errorf("round trip %v → %v", w, got.Load())
			}
		default:
			if got.Load() != want.Load() {
				t.Errorf("round trip %#v → %#v", want.Load(), got.Load())
			}
		}
	}
	if len(rest) != 0 {
		t.Errorf("%d trailing bytes after decode", len(rest))
	}

	type oddball struct{ n int }
	if _, err := appendValue(nil, val.OfAny(oddball{1})); !errors.Is(err, ErrUnsupportedPayload) {
		t.Errorf("struct payload: err = %v, want ErrUnsupportedPayload", err)
	}
	if EncodableValue(val.OfAny(oddball{1})) {
		t.Error("EncodableValue(struct) = true")
	}
	if !EncodableValue(val.OfInt(1)) || !EncodableValue(val.OfAny("s")) {
		t.Error("EncodableValue rejected a serializable payload")
	}
}

// newTestEngine wraps a fresh base engine over dir with fsync=always (the
// crisp policy for crash tests: acked ⇔ synced) and compaction disabled
// unless opt overrides.
func newTestEngine(t *testing.T, base, dir string, opt Options) *Engine {
	t.Helper()
	return newTestEngineFS(t, base, dir, opt, osFS{})
}

// newTestEngineFS is newTestEngine over the file system fs.
func newTestEngineFS(t *testing.T, base, dir string, opt Options, fs fileSystem) *Engine {
	t.Helper()
	if opt.Fsync == "" {
		opt.Fsync = FsyncAlways
	}
	if opt.SnapshotBytes == 0 {
		opt.SnapshotBytes = -1
	}
	opt.Dir = dir
	e, err := wrap(engine.MustNew(base, engine.Options{}), opt, fs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// bankCells creates the standard three-cell fixture: two 1000-unit accounts
// and a commit counter.
func bankCells(e *Engine) (a, b, c engine.Cell) {
	return e.NewCell(1000), e.NewCell(1000), e.NewCell(0)
}

// transfer runs one conserved-sum step: a−1, b+1, counter=i.
func transfer(th engine.Thread, a, b, c engine.Cell, i int) error {
	return th.Run(func(tx engine.Txn) error {
		if err := engine.Update(tx, a, func(n int) int { return n - 1 }); err != nil {
			return err
		}
		if err := engine.Update(tx, b, func(n int) int { return n + 1 }); err != nil {
			return err
		}
		return engine.Set(tx, c, i)
	})
}

// readState recovers (a, b, counter) from a WAL directory by scanning it
// directly — no engine involved.
func readState(t *testing.T, dir string) (a, b, c int, rec *recovery) {
	t.Helper()
	rec, err := recoverDir(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	get := func(id uint64) int {
		v, ok := rec.values.get(id)
		if !ok {
			t.Fatalf("cell %d missing from recovery", id)
		}
		n, ok := v.Load().(int)
		if !ok {
			t.Fatalf("cell %d holds %T, want int", id, v.Load())
		}
		return n
	}
	return get(0), get(1), get(2), rec
}

// TestTornFinalRecordEveryTruncationPoint kills the disk in the write of the
// final frame, after it landed cut bytes, for every possible cut: recovery
// must truncate the torn tail (reporting its size) and restore exactly the
// acknowledged prefix, for every cut. The active segment is preallocated, so
// the cut bytes are followed by zeros: tornBytes counts the written bytes up
// to the last non-zero one, and the expected value per cut is computed from
// the bytes of the frame the write lands.
func TestTornFinalRecordEveryTruncationPoint(t *testing.T) {
	// The frames of a clean log of three transfers: the crash cuts the third.
	frames := func() [][]byte {
		dir := t.TempDir()
		e := newTestEngine(t, "norec", dir, Options{})
		th := e.Thread(0)
		a, b, c := bankCells(e)
		for i := 1; i <= 3; i++ {
			if err := transfer(th, a, b, c, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.WALClose(); err != nil {
			t.Fatal(err)
		}
		frames := segmentFrames(t, dir)
		if len(frames) != 3 {
			t.Fatalf("reference log holds %d frames, want 3", len(frames))
		}
		return frames
	}()
	frame, frameLen := frames[2], len(frames[2])
	keptBytes := int64(len(segmentMagic) + len(frames[0]) + len(frames[1]))
	if frameLen < FrameHeaderLen+3 {
		t.Fatalf("implausible frame length %d", frameLen)
	}
	// wantTorn is what recovery can see of a cut: the written bytes up to
	// the last non-zero one.
	wantTorn := func(cut int) int64 {
		n := cut
		for n > 0 && frame[n-1] == 0 {
			n--
		}
		return int64(n)
	}

	cuts := make([]int, 0, frameLen)
	for cut := 0; cut < frameLen; cut++ {
		cuts = append(cuts, cut)
	}
	if testing.Short() {
		// Keep the boundary cuts (empty tail, torn header, torn payload,
		// one-byte-short) and thin the middle.
		cuts = []int{0, 1, FrameHeaderLen - 1, FrameHeaderLen, FrameHeaderLen + 1, frameLen / 2, frameLen - 2, frameLen - 1}
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		fs := &testFS{}
		e := newTestEngineFS(t, "norec", dir, Options{}, fs)
		th := e.Thread(0)
		a, b, c := bankCells(e)
		for i := 1; i <= 2; i++ {
			if err := transfer(th, a, b, c, i); err != nil {
				t.Fatal(err)
			}
		}
		fs.dieAt(func(op *fsOp) bool { op.land = cut; return op.kind == opWrite })
		if err := transfer(th, a, b, c, 3); !errors.Is(err, errDied) {
			t.Fatalf("cut %d: err = %v, want the disk dead", cut, err)
		}
		// The wedged engine refuses everything from here.
		if err := th.Run(func(tx engine.Txn) error { return nil }); !errors.Is(err, errDied) {
			t.Fatalf("cut %d: post-crash Run err = %v, want the disk dead", cut, err)
		}
		e.WALClose()

		av, bv, cv, rec := readState(t, dir)
		if av+bv != 2000 {
			t.Errorf("cut %d: sum %d+%d, want 2000", cut, av, bv)
		}
		if cv != 2 || rec.commits != 2 || rec.lastSeq != 2 {
			t.Errorf("cut %d: recovered counter=%d commits=%d lastSeq=%d, want 2/2/2", cut, cv, rec.commits, rec.lastSeq)
		}
		if want := wantTorn(cut); rec.tornBytes != want {
			t.Errorf("cut %d: tornBytes = %d, want %d", cut, rec.tornBytes, want)
		}
		// Recovery truncated the torn tail and the reservation after it: the
		// segment ends at the second frame, and a second recovery sees a
		// clean log with nothing more to truncate.
		if sizes, _ := segmentSizes(t, dir); sizes[0] != keptBytes {
			t.Errorf("cut %d: recovered segment holds %d bytes, want %d", cut, sizes[0], keptBytes)
		}
		if _, _, _, rec2 := readState(t, dir); rec2.tornBytes != 0 || rec2.commits != 2 {
			t.Errorf("cut %d: second recovery tornBytes=%d commits=%d, want 0/2", cut, rec2.tornBytes, rec2.commits)
		}
	}
}

// TestAfterRecordBeforeSync: the disk dies at the fsync of a commit whose
// full record reached the OS, so in-process recovery sees it — recovering an
// unacknowledged commit is legal (more than acked, never less).
func TestAfterRecordBeforeSync(t *testing.T) {
	dir := t.TempDir()
	fs := &testFS{}
	e := newTestEngineFS(t, "norec", dir, Options{}, fs)
	th := e.Thread(0)
	a, b, c := bankCells(e)
	for i := 1; i <= 2; i++ {
		if err := transfer(th, a, b, c, i); err != nil {
			t.Fatal(err)
		}
	}
	fs.dieAt(func(op *fsOp) bool { return op.kind == opSync })
	if err := transfer(th, a, b, c, 3); !errors.Is(err, errDied) {
		t.Fatalf("err = %v, want the disk dead", err)
	}
	e.WALClose()
	av, bv, cv, rec := readState(t, dir)
	if av+bv != 2000 {
		t.Errorf("sum %d+%d, want 2000", av, bv)
	}
	if cv != 3 || rec.commits != 3 || rec.tornBytes != 0 {
		t.Errorf("counter=%d commits=%d torn=%d, want 3/3/0", cv, rec.commits, rec.tornBytes)
	}
}

// TestCRCCorruptionMidLog: a corrupt frame in a non-final segment is hard
// corruption — recovery stops at the bad frame and reports it instead of
// guessing past it.
func TestCRCCorruptionMidLog(t *testing.T) {
	dir := t.TempDir()
	// segmentBytes = 1: every commit rotates, so each record lands in its
	// own segment and a trailing empty segment is always active.
	e := newTestEngine(t, "norec", dir, Options{segmentBytes: 1})
	th := e.Thread(0)
	a, b, c := bankCells(e)
	for i := 1; i <= 4; i++ {
		if err := transfer(th, a, b, c, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want ≥ 3 segments, got %d", len(segs))
	}
	// Flip one payload byte in the second segment (mid-log).
	corrupt(t, segs[1].path, int64(len(segmentMagic)+FrameHeaderLen+2))
	_, err = recoverDir(osFS{}, dir)
	if err == nil || !strings.Contains(err.Error(), "mid-log") {
		t.Fatalf("recoverDir = %v, want mid-log corruption error", err)
	}
}

// TestCRCCorruptionFinalSegment: a corrupt frame in the final segment is
// treated as a torn tail — truncated and reported, never refused.
func TestCRCCorruptionFinalSegment(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, "norec", dir, Options{})
	th := e.Thread(0)
	a, b, c := bankCells(e)
	for i := 1; i <= 4; i++ {
		if err := transfer(th, a, b, c, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	st, err := os.Stat(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the final frame's payload. Frames are equal
	// length here (identical shape), so the last frame starts at
	// size − (size − magic)/4.
	frameLen := (st.Size() - int64(len(segmentMagic))) / 4
	corrupt(t, segs[0].path, st.Size()-frameLen+FrameHeaderLen+1)

	av, bv, cv, rec := readState(t, dir)
	if av+bv != 2000 || cv != 3 {
		t.Errorf("recovered a=%d b=%d counter=%d, want sum 2000 counter 3", av, bv, cv)
	}
	if rec.commits != 3 || rec.tornBytes != frameLen {
		t.Errorf("commits=%d tornBytes=%d, want 3/%d", rec.commits, rec.tornBytes, frameLen)
	}
}

func corrupt(t *testing.T, path string, offset int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var one [1]byte
	if _, err := f.ReadAt(one[:], offset); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xff
	if _, err := f.WriteAt(one[:], offset); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyLogBoot: an empty (or missing) directory recovers to the empty
// state and the engine is immediately usable.
func TestEmptyLogBoot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "does", "not", "exist", "yet")
	e := newTestEngine(t, "norec", dir, Options{})
	if info := e.DurabilityInfo(); info.RecoveredCommits != 0 || info.RecoveredSeq != 0 || info.SnapshotSeq != 0 {
		t.Errorf("empty boot info = %+v, want zeroes", info)
	}
	th := e.Thread(0)
	a, b, c := bankCells(e)
	if err := transfer(th, a, b, c, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}
	if _, _, cv, _ := readState(t, dir); cv != 1 {
		t.Errorf("counter = %d, want 1", cv)
	}
}

// TestSnapshotOnlyBoot: with every segment gone, boot restores the full
// state from the snapshot alone, reporting zero replayed commits, and the
// engine keeps committing from the watermark.
func TestSnapshotOnlyBoot(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, "norec", dir, Options{})
	th := e.Thread(0)
	a, b, c := bankCells(e)
	for i := 1; i <= 5; i++ {
		if err := transfer(th, a, b, c, i); err != nil {
			t.Fatal(err)
		}
	}
	e.compact() // deterministic synchronous snapshot at watermark 5
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if err := os.Remove(s.path); err != nil {
			t.Fatal(err)
		}
	}

	av, bv, cv, rec := readState(t, dir)
	if av != 995 || bv != 1005 || cv != 5 {
		t.Errorf("snapshot state = %d/%d/%d, want 995/1005/5", av, bv, cv)
	}
	if rec.commits != 0 || rec.snapSeq != 5 || rec.lastSeq != 5 {
		t.Errorf("commits=%d snapSeq=%d lastSeq=%d, want 0/5/5", rec.commits, rec.snapSeq, rec.lastSeq)
	}

	// And a real boot on top continues the sequence.
	e2 := newTestEngine(t, "norec", dir, Options{})
	if info := e2.DurabilityInfo(); info.SnapshotSeq != 5 || info.RecoveredCommits != 0 {
		t.Errorf("boot info = %+v, want snapshot_seq 5, 0 replayed", info)
	}
	th2 := e2.Thread(0)
	a2, b2, c2 := bankCells(e2)
	if err := transfer(th2, a2, b2, c2, 6); err != nil {
		t.Fatal(err)
	}
	if err := e2.WALClose(); err != nil {
		t.Fatal(err)
	}
	if _, _, cv, rec := readState(t, dir); cv != 6 || rec.lastSeq != 6 {
		t.Errorf("after continue: counter=%d lastSeq=%d, want 6/6", cv, rec.lastSeq)
	}
}

// TestSnapshotCompactionTruncatesSegments: compaction deletes every segment
// the watermark covers, and snapshot-then-tail recovery replays only the
// records above the watermark.
func TestSnapshotCompactionTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, "norec", dir, Options{segmentBytes: 1})
	th := e.Thread(0)
	a, b, c := bankCells(e)
	for i := 1; i <= 4; i++ {
		if err := transfer(th, a, b, c, i); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := listSegments(osFS{}, dir)
	e.compact()
	after, err := listSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Errorf("compaction kept %d of %d segments", len(after), len(before))
	}
	// Commits continue into the tail; recovery folds snapshot + tail.
	for i := 5; i <= 6; i++ {
		if err := transfer(th, a, b, c, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}
	av, bv, cv, rec := readState(t, dir)
	if av+bv != 2000 || cv != 6 || rec.snapSeq != 4 || rec.lastSeq != 6 || rec.commits != 2 {
		t.Errorf("got a=%d b=%d c=%d snap=%d last=%d commits=%d, want sum 2000, c 6, snap 4, last 6, commits 2",
			av, bv, cv, rec.snapSeq, rec.lastSeq, rec.commits)
	}
}

// TestSnapshotRenameCrashpoints: a compaction whose disk dies at the rename
// leaves the old state intact (tmp ignored and cleaned); one whose disk dies
// after the rename, at the first covered segment's removal, leaves stale
// segments whose records recovery must skip, not re-apply.
func TestSnapshotRenameCrashpoints(t *testing.T) {
	states := []struct {
		name string
		dies func(op *fsOp) bool
	}{
		{"mid-snapshot-rename", func(op *fsOp) bool { return op.kind == opRename }},
		{"after-snapshot-rename", func(op *fsOp) bool { return op.kind == opRemove && isSegment(op.path) }},
	}
	for _, state := range states {
		t.Run(state.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := &testFS{}
			e := newTestEngineFS(t, "norec", dir, Options{segmentBytes: 1}, fs)
			th := e.Thread(0)
			a, b, c := bankCells(e)
			for i := 1; i <= 4; i++ {
				if err := transfer(th, a, b, c, i); err != nil {
					t.Fatal(err)
				}
			}
			fs.dieAt(state.dies)
			e.compact()
			if fs.died() == nil {
				t.Fatalf("compaction never reached the %s crash", state.name)
			}
			// The dead disk takes no more commits.
			if err := transfer(th, a, b, c, 5); !errors.Is(err, errDied) {
				t.Fatalf("post-crash transfer err = %v, want the disk dead", err)
			}
			e.WALClose()

			av, bv, cv, rec := readState(t, dir)
			if av+bv != 2000 || cv != 4 || rec.lastSeq != 4 {
				t.Errorf("recovered a=%d b=%d c=%d lastSeq=%d, want sum 2000, c 4, last 4", av, bv, cv, rec.lastSeq)
			}
			switch state.name {
			case "mid-snapshot-rename":
				if rec.snapSeq != 0 || rec.commits != 4 {
					t.Errorf("snapSeq=%d commits=%d, want 0/4 (snapshot never installed)", rec.snapSeq, rec.commits)
				}
				if _, err := os.Stat(filepath.Join(dir, snapshotTmp)); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("leftover snapshot.tmp not cleaned: %v", err)
				}
			case "after-snapshot-rename":
				// Snapshot live, stale segments still on disk: their
				// records are ≤ the watermark and must be skipped, not
				// re-applied (re-applying absolute values would regress
				// nothing here, but double-counting commits would show).
				if rec.snapSeq != 4 || rec.commits != 0 {
					t.Errorf("snapSeq=%d commits=%d, want 4/0 (stale segments skipped)", rec.snapSeq, rec.commits)
				}
			}
		})
	}
}

// TestSequenceGapIsCorruption: a log whose dense seq prefix is broken (a
// record deleted mid-stream) must be refused.
func TestSequenceGapIsCorruption(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, "norec", dir, Options{segmentBytes: 1})
	th := e.Thread(0)
	a, b, c := bankCells(e)
	for i := 1; i <= 3; i++ {
		if err := transfer(th, a, b, c, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the middle record's segment entirely.
	if err := os.Remove(segs[1].path); err != nil {
		t.Fatal(err)
	}
	if _, err := recoverDir(osFS{}, dir); err == nil || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("recoverDir = %v, want sequence-gap error", err)
	}
}

// TestUnsupportedPayloadRejectedAtWrite: a non-serializable payload fails
// the write before anything commits; the transaction aborts cleanly and the
// engine (and its log) remain fully usable.
func TestUnsupportedPayloadRejectedAtWrite(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, "norec", dir, Options{})
	th := e.Thread(0)
	a, b, c := bankCells(e)
	type blob struct{ x int }
	err := th.Run(func(tx engine.Txn) error {
		if err := engine.Set(tx, a, 5); err != nil {
			return err
		}
		return tx.Write(b, blob{9})
	})
	if !errors.Is(err, ErrUnsupportedPayload) {
		t.Fatalf("err = %v, want ErrUnsupportedPayload", err)
	}
	if err := transfer(th, a, b, c, 1); err != nil {
		t.Fatalf("engine unusable after rejected payload: %v", err)
	}
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}
	av, _, _, rec := readState(t, dir)
	if av != 999 || rec.commits != 1 {
		t.Errorf("a=%d commits=%d, want 999/1 (aborted write never journaled)", av, rec.commits)
	}
}

// TestWALCloseSemantics: close is idempotent, updates fail afterwards,
// reads keep working.
func TestWALCloseSemantics(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, "norec", dir, Options{})
	th := e.Thread(0)
	a, b, c := bankCells(e)
	if err := transfer(th, a, b, c, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}
	if err := e.WALClose(); err != nil {
		t.Errorf("second WALClose: %v", err)
	}
	var got int
	if err := th.RunReadOnly(func(tx engine.Txn) error {
		var err error
		got, err = engine.Get[int](tx, a)
		return err
	}); err != nil || got != 999 {
		t.Errorf("post-close read = %d, %v; want 999, nil", got, err)
	}
	if err := transfer(th, a, b, c, 2); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close update err = %v, want ErrClosed", err)
	}
}

// TestWALCloseRemovesOnlyItsOwnDir: a log directory Wrap made for an empty
// Options.Dir is removed by WALClose, commits and all; a caller's directory
// is left for recovery to reopen.
func TestWALCloseRemovesOnlyItsOwnDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	e, err := Wrap(engine.MustNew("norec", engine.Options{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := bankCells(e)
	if err := transfer(e.Thread(0), a, b, c, 1); err != nil {
		t.Fatal(err)
	}
	if dir := e.DurabilityInfo().WALDir; filepath.Dir(dir) != tmp {
		t.Fatalf("temp log directory %q is not under TMPDIR %q", dir, tmp)
	}
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("TMPDIR after WALClose: %v, %v; want empty", left, err)
	}

	dir := t.TempDir()
	e = newTestEngine(t, "norec", dir, Options{})
	a, b, c = bankCells(e)
	if err := transfer(e.Thread(0), a, b, c, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}
	if _, _, n, _ := readState(t, dir); n != 1 {
		t.Errorf("explicit directory after WALClose recovers counter %d, want 1", n)
	}
}
