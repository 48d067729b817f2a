package durable

// Tests and benchmarks for demand-driven group commit: the leader/follower
// flusher in Log.Commit, its error paths, and its interplay with everything
// else that touches the segment file. The sync seam (logConfig.sync) stands
// in for the device: slow, instant, counting or failing.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/val"
)

// testFrame builds the framed redo record Commit takes for seq: one write of
// seq to cell 0.
func testFrame(seq uint64) []byte {
	b, err := appendRecord(append([]byte(nil), framePad[:]...), recCommit, seq, []entry{{ID: 0, V: val.OfInt(int(seq))}})
	if err != nil {
		panic(err)
	}
	return Frame(b)
}

func openTestLog(t testing.TB, cfg logConfig) *Log {
	t.Helper()
	if cfg.dir == "" {
		cfg.dir = t.TempDir()
	}
	cfg.startSeq = 1
	l, err := openLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func (l *Log) flushed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushedSeq
}

func (l *Log) syncStats() (fsyncs, commits uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fsyncs, l.synced
}

// waitAppended blocks until seq has been appended (its committer is then in,
// or about to enter, the group wait).
func waitAppended(l *Log, seq uint64) {
	for l.AppendedSeq() < seq {
		time.Sleep(50 * time.Microsecond)
	}
}

// TestGroupCommitSharesFsyncs: with a slow device and 8 committers, commits
// that arrive during an fsync ride the next one — far fewer fsyncs than
// commits — and nobody is acknowledged before an fsync covered its record.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	var syncs atomic.Int64
	l := openTestLog(t, logConfig{policy: FsyncGroup, sync: func(f *os.File) error {
		syncs.Add(1)
		time.Sleep(time.Millisecond)
		return f.Sync()
	}})
	defer l.Close()
	const committers, each = 8, 40
	var ticket atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq := ticket.Add(1)
				if _, err := l.Commit(seq, testFrame(seq)); err != nil {
					t.Errorf("commit %d: %v", seq, err)
					return
				}
				if got := l.flushed(); got < seq {
					t.Errorf("commit %d acknowledged with flushedSeq %d", seq, got)
				}
			}
		}()
	}
	wg.Wait()
	const commits = committers * each
	if n := syncs.Load(); n >= commits {
		t.Errorf("%d fsyncs for %d commits: no batching", n, commits)
	}
	fsyncs, synced := l.syncStats()
	if synced != commits || int64(fsyncs) != syncs.Load() {
		t.Errorf("syncStats = %d fsyncs / %d commits, want %d / %d", fsyncs, synced, syncs.Load(), commits)
	}
}

// TestGroupLoneCommitterWaitsForNoTimer: with the device out of the picture a
// lone group commit costs microseconds — nothing in the path waits for a
// clock — and wal.go has no way to wait for one: no time import, no goroutine.
func TestGroupLoneCommitterWaitsForNoTimer(t *testing.T) {
	l := openTestLog(t, logConfig{policy: FsyncGroup, sync: func(*os.File) error { return nil }})
	defer l.Close()
	const n = 200
	frames := make([][]byte, n+1)
	for seq := uint64(1); seq <= n; seq++ {
		frames[seq] = testFrame(seq)
	}
	start := time.Now()
	for seq := uint64(1); seq <= n; seq++ {
		if _, err := l.Commit(seq, frames[seq]); err != nil {
			t.Fatal(err)
		}
	}
	if per := time.Since(start) / n; per >= time.Millisecond {
		t.Errorf("lone group commit took %v with an instant fsync, want well under 1ms", per)
	}

	file, err := parser.ParseFile(token.NewFileSet(), "wal.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range file.Imports {
		if imp.Path.Value == `"time"` {
			t.Error("wal.go imports time: group commit must not wait on a ticker or timer")
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			t.Error("wal.go starts a goroutine: the flusher is whichever committer gets there first")
		}
		return true
	})
}

// TestGroupFsyncErrorWedgesBatch: a failed group fsync fails every waiter of
// its batch and every later commit with the same sticky error, acknowledges
// nobody, and is never retried.
func TestGroupFsyncErrorWedgesBatch(t *testing.T) {
	boom := errors.New("injected fsync failure")
	var syncs atomic.Int64
	release := make(chan struct{})
	l := openTestLog(t, logConfig{policy: FsyncGroup, sync: func(*os.File) error {
		syncs.Add(1)
		<-release
		return boom
	}})
	errs := make(chan error, 3)
	for seq := uint64(1); seq <= 3; seq++ {
		go func(seq uint64) {
			_, err := l.Commit(seq, testFrame(seq))
			errs <- err
		}(seq)
		waitAppended(l, seq) // seq 1 leads; 2 and 3 join the batch behind it
	}
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Errorf("batch member: err = %v, want the fsync failure", err)
		}
	}
	if _, err := l.Commit(4, testFrame(4)); !errors.Is(err, boom) {
		t.Errorf("later commit: err = %v, want the sticky fsync failure", err)
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Errorf("Sync: err = %v, want the sticky fsync failure", err)
	}
	l.Close()
	if n := syncs.Load(); n != 1 {
		t.Errorf("%d fsyncs issued, want exactly 1 (no retry after a failure)", n)
	}
	if got := l.flushed(); got != 0 {
		t.Errorf("flushedSeq = %d after a failed fsync, want 0", got)
	}
}

// TestCloseSyncErrorAcknowledgesNobody: when Close's own flush/fsync fails it
// must wedge the log and leave flushedSeq alone, not publish the unsynced
// records as flushed.
func TestCloseSyncErrorAcknowledgesNobody(t *testing.T) {
	boom := errors.New("injected fsync failure")
	t.Run("unsynced tail", func(t *testing.T) {
		l := openTestLog(t, logConfig{policy: FsyncNever, sync: func(*os.File) error { return boom }})
		for seq := uint64(1); seq <= 2; seq++ {
			if _, err := l.Commit(seq, testFrame(seq)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); !errors.Is(err, boom) {
			t.Errorf("Close = %v, want the fsync failure", err)
		}
		if err := l.Err(); !errors.Is(err, boom) {
			t.Errorf("Err after failed Close = %v, want the log wedged", err)
		}
		if got := l.flushed(); got != 0 {
			t.Errorf("flushedSeq = %d after a failed Close, want 0", got)
		}
	})
	t.Run("group waiter", func(t *testing.T) {
		// Seq 1 leads a flush that succeeds; every fsync after it fails. Seq 2
		// waits behind the flush while Close waits too: whichever of them runs
		// the next fsync, seq 2 was never synced and must not be acknowledged.
		var syncs atomic.Int64
		release := make(chan struct{})
		l := openTestLog(t, logConfig{policy: FsyncGroup, sync: func(*os.File) error {
			if syncs.Add(1) == 1 {
				<-release
				return nil
			}
			return boom
		}})
		errs := make([]chan error, 3)
		for seq := uint64(1); seq <= 2; seq++ {
			errs[seq] = make(chan error, 1)
			go func(seq uint64) {
				_, err := l.Commit(seq, testFrame(seq))
				errs[seq] <- err
			}(seq)
			waitAppended(l, seq)
		}
		closed := make(chan error, 1)
		go func() { closed <- l.Close() }()
		time.Sleep(time.Millisecond) // let Close reach its wait (either order is legal)
		close(release)
		if err := <-errs[1]; err != nil {
			t.Errorf("seq 1 was synced but got %v", err)
		}
		if err := <-errs[2]; err == nil {
			t.Error("seq 2 acknowledged though no fsync covered it")
		}
		<-closed
		if got := l.flushed(); got != 1 {
			t.Errorf("flushedSeq = %d, want 1", got)
		}
		if l.Err() == nil {
			t.Error("log not wedged after the failed fsync")
		}
	})
}

// TestGroupCloseWaitsOutOneFlush: Close waits for the group flush in flight
// and for no other, however many commits keep arriving: once it waits, no
// committer leads a new flush, and its own sync covers what they appended.
// Without that, committers that win the log mutex back from a woken Close
// can keep it waiting for as long as they commit (seconds on one CPU).
func TestGroupCloseWaitsOutOneFlush(t *testing.T) {
	var syncs atomic.Int64
	release := make(chan struct{})
	l := openTestLog(t, logConfig{policy: FsyncGroup, sync: func(*os.File) error {
		if syncs.Add(1) == 1 {
			<-release
		}
		return nil
	}})
	var ticket atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq := ticket.Add(1)
				if _, err := l.Commit(seq, testFrame(seq)); err != nil {
					return
				}
			}
		}()
	}
	for syncs.Load() == 0 {
		runtime.Gosched() // until the first flush is in flight
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	for closing := false; !closing; {
		runtime.Gosched()
		l.mu.Lock()
		closing = l.closing
		l.mu.Unlock()
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if n := syncs.Load(); n != 2 {
		t.Errorf("%d fsyncs, want 2: the flush Close found in flight and Close's own", n)
	}
}

// TestGroupFlushRaces: segment rotation, Sync, skipTo and Close each race
// group flushes in flight (run under -race); afterwards recovery finds a dense
// log that holds every acknowledged seq.
func TestGroupFlushRaces(t *testing.T) {
	dir := t.TempDir()
	// The short sleep keeps a flush in flight most of the time; the tiny
	// segment size rotates every few records.
	l := openTestLog(t, logConfig{dir: dir, policy: FsyncGroup, segmentBytes: 128, sync: func(f *os.File) error {
		time.Sleep(100 * time.Microsecond)
		return f.Sync()
	}})
	var ticket, maxAcked atomic.Uint64
	// commitLoop commits until the budget is spent or the log refuses.
	commitLoop := func(wg *sync.WaitGroup, budget int) {
		defer wg.Done()
		for i := 0; i < budget; i++ {
			seq := ticket.Add(1)
			if _, err := l.Commit(seq, testFrame(seq)); err != nil {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("commit %d: %v", seq, err)
				}
				return
			}
			for {
				cur := maxAcked.Load()
				if seq <= cur || maxAcked.CompareAndSwap(cur, seq) {
					break
				}
			}
		}
	}

	// Rotation and Sync against flushes in flight.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go commitLoop(&wg, 100)
	}
	stop := make(chan struct{})
	syncer := make(chan struct{})
	go func() {
		defer close(syncer)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Sync(); err != nil {
				t.Errorf("Sync: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-syncer

	// skipTo against a flush in flight: the way a follower installs a
	// snapshot at watermark W and resumes at W+1.
	seq := ticket.Add(1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := l.Commit(seq, testFrame(seq)); err != nil {
			t.Errorf("commit %d: %v", seq, err)
		}
	}()
	waitAppended(l, seq)
	watermark := seq + 4
	frame, err := snapshotFrame(watermark, []entry{{ID: 0, V: val.OfInt(int(watermark))}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(watermark, frame); err != nil {
		t.Fatal(err)
	}
	if err := l.skipTo(watermark + 1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	ticket.Store(watermark)

	// Close against flushes in flight: committers run until refused.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go commitLoop(&wg, 1<<30)
	}
	time.Sleep(5 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()

	rec, err := recoverDir(dir)
	if err != nil {
		t.Fatalf("recovery after the races: %v", err)
	}
	if rec.lastSeq < maxAcked.Load() || rec.lastSeq <= watermark {
		t.Errorf("recovered through seq %d, acknowledged through %d (watermark %d)", rec.lastSeq, maxAcked.Load(), watermark)
	}
}

// TestAllocBudget: a durable commit allocates nothing — the journaling
// transaction, its redo buffer and the closure around the caller's fn are all
// per-thread and reused, and the group wait needs no per-commit channel.
func TestAllocBudget(t *testing.T) {
	for _, policy := range []string{FsyncNever, FsyncGroup} {
		e := newTestEngine(t, "norec", t.TempDir(), Options{Fsync: policy})
		th := e.Thread(0)
		a, b := e.NewCell(1000), e.NewCell(1000)
		fn := func(tx engine.Txn) error {
			if err := engine.Update(tx, a, func(n int) int { return n - 1 }); err != nil {
				return err
			}
			return engine.Update(tx, b, func(n int) int { return n + 1 })
		}
		run := func() {
			if err := th.Run(fn); err != nil {
				t.Fatal(err)
			}
		}
		run() // size the redo scratch before AllocsPerRun's own warm-up
		if got := testing.AllocsPerRun(100, run); got > 0 {
			t.Errorf("fsync=%s: %.2f allocs per int-lane transfer, budget 0", policy, got)
		}
		if err := e.WALClose(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocBudgetReplicated: a follower applies and journals a replicated
// commit without allocating — the decode scratch, the cells and the apply
// transaction are the engine's and reused, int writes take the int lane,
// and the frame is journaled as it came, not encoded again.
func TestAllocBudgetReplicated(t *testing.T) {
	for _, policy := range []string{FsyncNever, FsyncGroup} {
		e := newTestEngine(t, "norec", t.TempDir(), Options{Fsync: policy})
		a, b := e.NewCell(1000), e.NewCell(1000)
		// The primary's transfer records, encoded into one reused buffer so
		// that only the apply is counted.
		writes := []entry{{ID: 0}, {ID: 1}}
		frame := make([]byte, FrameHeaderLen, 64)
		var seq uint64
		apply := func() {
			seq++
			writes[0].V, writes[1].V = val.OfInt(1000-int(seq)), val.OfInt(1000+int(seq))
			var err error
			if frame, err = appendRecord(frame[:FrameHeaderLen], recCommit, seq, writes); err != nil {
				t.Fatal(err)
			}
			if err := e.ApplyReplicated(Frame(frame)); err != nil {
				t.Fatal(err)
			}
		}
		apply() // start the apply thread and size its scratch first
		if got := testing.AllocsPerRun(100, apply); got > 0 {
			t.Errorf("fsync=%s: %.2f allocs per replicated two-int commit, budget 0", policy, got)
		}
		var x, y int
		if err := e.Thread(1).RunReadOnly(func(tx engine.Txn) error {
			var err error
			if x, err = engine.Get[int](tx, a); err != nil {
				return err
			}
			y, err = engine.Get[int](tx, b)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if want := 1000 - int(seq); x != want || y != 2000-want || e.AppendedSeq() != seq {
			t.Errorf("fsync=%s: cells %d, %d at seq %d, want %d, %d at %d", policy, x, y, e.AppendedSeq(), want, 2000-want, seq)
		}
		if err := e.WALClose(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkLogCommit is the WAL alone — no engine, no ticket cell: per-commit
// cost by fsync policy and committer count, with the batch size group commit
// reached.
func BenchmarkLogCommit(b *testing.B) {
	for _, policy := range []string{FsyncNever, FsyncGroup, FsyncAlways} {
		for _, committers := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("%s/%d", policy, committers), func(b *testing.B) {
				l := openTestLog(b, logConfig{policy: policy})
				defer l.Close()
				var ticket atomic.Uint64
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < committers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						frame := testFrame(1 << 40)
						for {
							seq := ticket.Add(1)
							if seq > uint64(b.N) {
								return
							}
							if _, err := l.Commit(seq, frame); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				if fsyncs, synced := l.syncStats(); fsyncs > 0 {
					b.ReportMetric(float64(synced)/float64(fsyncs), "commits/fsync")
				}
			})
		}
	}
}

// BenchmarkReplay is recovery-on-boot, per commit, over two logs: 20k
// one-write commits, and the 200k two-int transfers over 1024 cells that a
// restart of the bench's durable_group workload replays, two segments long.
func BenchmarkReplay(b *testing.B) {
	b.Run("20k", func(b *testing.B) {
		dir := b.TempDir()
		writeTestLog(b, dir, 20_000, testFrame)
		benchReplay(b, dir, 20_000)
	})
	b.Run("transfer", func(b *testing.B) {
		dir := b.TempDir()
		writeTransferLog(b, dir)
		benchReplay(b, dir, transferCommits)
	})
}

// benchReplay times recovering the log of commits commits in dir.
func benchReplay(b *testing.B, dir string, commits uint64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := recoverDir(dir)
		if err != nil || rec.commits != commits {
			b.Fatalf("recovered %d commits, err %v", rec.commits, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(commits), "ns/commit")
}

// TestApplyReplicatedSnapshot: a replicated snapshot is installed from its
// record whatever its frame header says, since the snapshot file gets a
// header of the engine's own and the next Wrap recovers it; a frame shorter
// than a header is refused; and the install keeps no scratch that holds the
// state's values.
func TestApplyReplicatedSnapshot(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, "norec", dir, Options{Fsync: FsyncNever})
	e.NewCell(0)
	e.NewCell("")
	if err := e.ApplyReplicated(make([]byte, FrameHeaderLen-1)); err == nil {
		t.Error("a frame shorter than its header was applied")
	}
	frame, err := snapshotFrame(7, []entry{{ID: 0, V: val.OfInt(3)}, {ID: 1, V: val.OfAny("x")}})
	if err != nil {
		t.Fatal(err)
	}
	clear(frame[:FrameHeaderLen]) // a stale header
	if err := e.ApplyReplicated(frame); err != nil {
		t.Fatal(err)
	}
	if e.applyEntries != nil || e.applyCells != nil {
		t.Errorf("snapshot install kept %d entries and %d cells of scratch", len(e.applyEntries), len(e.applyCells))
	}
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, "norec", dir, Options{Fsync: FsyncNever})
	defer e2.WALClose()
	a, b := e2.NewCell(0), e2.NewCell("")
	var n int
	var s string
	if err := e2.Thread(0).RunReadOnly(func(tx engine.Txn) error {
		var err error
		if n, err = engine.Get[int](tx, a); err != nil {
			return err
		}
		s, err = engine.Get[string](tx, b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := e2.DurabilityInfo().RecoveredSeq; got != 7 || n != 3 || s != "x" {
		t.Errorf("recovered seq %d with cells %d, %q; want 7 with 3, \"x\"", got, n, s)
	}
}
