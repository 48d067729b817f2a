package durable

// The test file system, and the tests that need to see or fail single file
// operations: their order, and disk-full writes.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/engine"
)

// Operation kinds, as a testFS records them.
const (
	opMkdir    = "mkdir"
	opCreate   = "create"
	opOpen     = "open"
	opWrite    = "write"
	opSync     = "sync"
	opTruncate = "truncate"
	opPrealloc = "prealloc"
	opClose    = "close"
	opRename   = "rename"
	opRemove   = "remove"
	opSyncDir  = "syncdir"
	opList     = "list"
	opReadFile = "readfile"
	opLoad     = "load"
	opRelease  = "release"
)

var (
	// errDied, returned by a fault, fails the operation and every later one:
	// the process died there, and nothing it does after reaches the disk.
	errDied = errors.New("test file system: the disk died")
	// errSkip, returned by a fault, reports the operation done without doing
	// it: an instant device.
	errSkip = errors.New("test file system: skipped")
)

// fsOp is one operation of a testFS.
type fsOp struct {
	n    int    // its place among the file system's operations, from 0
	kind string // opCreate, opWrite, ...
	path string // for a rename, where from
	data []byte // what a write writes; not recorded
	// land is how many bytes of data a write the fault fails writes first.
	land int
}

// testFS is the os file system with a fault that sees every operation before
// it runs, and a record of them all. The fault may count, delay or block an
// operation; an error from it fails the operation, after a write has landed
// op.land bytes. Close and ReleaseImage always run, since a dying process
// closes its files and mappings too, but report the fault's error.
type testFS struct {
	osFS

	mu    sync.Mutex
	fault func(op *fsOp) error
	ops   []fsOp
	death *fsOp // the operation the disk died at
}

// setFault makes fault decide the operations from here on.
func (fs *testFS) setFault(fault func(op *fsOp) error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.fault = fault
}

// dieAt makes the disk die at the first operation from here on that match
// accepts; match may set op.land.
func (fs *testFS) dieAt(match func(op *fsOp) bool) {
	fs.setFault(func(op *fsOp) error {
		if match(op) {
			return errDied
		}
		return nil
	})
}

// record returns the operations so far, in order.
func (fs *testFS) record() []fsOp {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]fsOp(nil), fs.ops...)
}

// died returns the operation the disk died at, or nil.
func (fs *testFS) died() *fsOp {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.death
}

// begin records an operation and returns it with the fault's verdict on it:
// errDied without asking once the disk is dead.
func (fs *testFS) begin(kind, path string, data []byte) (fsOp, error) {
	fs.mu.Lock()
	if fs.death != nil {
		fs.mu.Unlock()
		return fsOp{}, errDied
	}
	op := fsOp{n: len(fs.ops), kind: kind, path: path}
	fs.ops = append(fs.ops, op)
	fault := fs.fault
	fs.mu.Unlock()
	if fault == nil {
		return op, nil
	}
	op.data = data
	err := fault(&op)
	if err == errDied {
		fs.mu.Lock()
		if fs.death == nil {
			fs.death = &fsOp{n: op.n, kind: kind, path: path}
		}
		fs.mu.Unlock()
	}
	op.land = min(max(op.land, 0), len(data))
	return op, err
}

// run does an operation that returns only an error.
func (fs *testFS) run(kind, path string, do func() error) error {
	if _, err := fs.begin(kind, path, nil); err != nil {
		if err == errSkip {
			return nil
		}
		return err
	}
	return do()
}

func (fs *testFS) MkdirAll(dir string) error {
	return fs.run(opMkdir, dir, func() error { return fs.osFS.MkdirAll(dir) })
}

func (fs *testFS) Create(path string) (file, error) { return fs.open(opCreate, path, fs.osFS.Create) }

func (fs *testFS) OpenWrite(path string) (file, error) {
	return fs.open(opOpen, path, fs.osFS.OpenWrite)
}

func (fs *testFS) open(kind, path string, do func(string) (file, error)) (file, error) {
	if _, err := fs.begin(kind, path, nil); err != nil {
		return nil, err
	}
	f, err := do(path)
	if err != nil {
		return nil, err
	}
	return &testFile{fs: fs, path: path, f: f}, nil
}

func (fs *testFS) Rename(from, to string) error {
	return fs.run(opRename, from, func() error { return fs.osFS.Rename(from, to) })
}

func (fs *testFS) Remove(path string) error {
	return fs.run(opRemove, path, func() error { return fs.osFS.Remove(path) })
}

func (fs *testFS) SyncDir(dir string) error {
	return fs.run(opSyncDir, dir, func() error { return fs.osFS.SyncDir(dir) })
}

func (fs *testFS) List(dir string) ([]string, error) {
	if _, err := fs.begin(opList, dir, nil); err != nil {
		return nil, err
	}
	return fs.osFS.List(dir)
}

func (fs *testFS) ReadFile(path string) ([]byte, error) {
	if _, err := fs.begin(opReadFile, path, nil); err != nil {
		return nil, err
	}
	return fs.osFS.ReadFile(path)
}

func (fs *testFS) LoadImage(path string, scratch []byte) ([]byte, error) {
	if _, err := fs.begin(opLoad, path, nil); err != nil {
		return nil, err
	}
	return fs.osFS.LoadImage(path, scratch)
}

func (fs *testFS) ReleaseImage(img []byte) ([]byte, error) {
	_, err := fs.begin(opRelease, "", nil)
	keep, rerr := fs.osFS.ReleaseImage(img)
	if err != nil && err != errSkip {
		return keep, err
	}
	return keep, rerr
}

// testFile is a file of a testFS.
type testFile struct {
	fs   *testFS
	path string
	f    file
}

func (f *testFile) Write(p []byte) (int, error) {
	op, err := f.fs.begin(opWrite, f.path, p)
	switch err {
	case nil:
		return f.f.Write(p)
	case errSkip:
		return len(p), nil
	}
	n, _ := f.f.Write(p[:op.land])
	return n, err
}

func (f *testFile) Sync() error { return f.fs.run(opSync, f.path, f.f.Sync) }

func (f *testFile) Truncate(size int64) error {
	return f.fs.run(opTruncate, f.path, func() error { return f.f.Truncate(size) })
}

func (f *testFile) Preallocate(size int64) error {
	return f.fs.run(opPrealloc, f.path, func() error { return f.f.Preallocate(size) })
}

func (f *testFile) Close() error {
	_, err := f.fs.begin(opClose, f.path, nil)
	cerr := f.f.Close()
	if err != nil && err != errSkip {
		return err
	}
	return cerr
}

// isSegment reports whether path names a WAL segment.
func isSegment(path string) bool {
	name := filepath.Base(path)
	return strings.HasPrefix(name, segmentPrefix) && strings.HasSuffix(name, segmentSuffix)
}

// opIndex returns the index of the first operation in ops at or after from
// that match accepts, or -1.
func opIndex(ops []fsOp, from int, match func(op fsOp) bool) int {
	for i := max(from, 0); i < len(ops); i++ {
		if match(ops[i]) {
			return i
		}
	}
	return -1
}

// is returns a match for an operation of kind on path.
func is(kind, path string) func(op fsOp) bool {
	return func(op fsOp) bool { return op.kind == kind && op.path == path }
}

// TestFileOperationOrder pins the order of the file operations that make an
// acknowledged commit durable, each of which is invisible to a test that
// only kills the process: the page cache survives that, so a dropped sync
// shows nowhere else.
func TestFileOperationOrder(t *testing.T) {
	t.Run("torn tail cut", func(t *testing.T) {
		// Recovery cuts a torn final segment and syncs the cut before Wrap
		// returns, and before the next segment is made: a later segment must
		// never follow a tail that comes back.
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
		fs.dieAt(func(op *fsOp) bool { op.land = len(op.data) / 2; return op.kind == opWrite })
		if err := transfer(th, a, b, c, 3); !errors.Is(err, errDied) {
			t.Fatalf("err = %v, want the disk dead", err)
		}
		e.WALClose()
		segs, err := listSegments(osFS{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		final := segs[len(segs)-1].path

		boot := &testFS{}
		e2 := newTestEngineFS(t, "norec", dir, Options{}, boot)
		defer e2.WALClose()
		ops := boot.record()
		if torn := e2.DurabilityInfo().TornTailBytes; torn == 0 {
			t.Fatal("no torn tail to cut")
		}
		cut := opIndex(ops, 0, is(opTruncate, final))
		synced := opIndex(ops, cut, is(opSync, final))
		next := opIndex(ops, cut, func(op fsOp) bool { return op.kind == opCreate && isSegment(op.path) })
		if cut < 0 || synced < 0 || next < 0 || synced > next {
			t.Errorf("boot over a torn tail: truncate at %d, its sync at %d, the next segment made at %d; want truncate < sync < create\n%v",
				cut, synced, next, ops)
		}
	})

	t.Run("new segment", func(t *testing.T) {
		// A new segment and the directory entry that names it are synced
		// before the first commit written into it is acknowledged.
		dir := t.TempDir()
		fs := &testFS{}
		e := newTestEngineFS(t, "norec", dir, Options{Fsync: FsyncGroup, segmentBytes: 128}, fs)
		defer e.WALClose()
		th := e.Thread(0)
		a, b, c := bankCells(e)
		var acks []int // len(ops) when each commit was acknowledged
		for i := 1; i <= 20; i++ {
			if err := transfer(th, a, b, c, i); err != nil {
				t.Fatal(err)
			}
			acks = append(acks, len(fs.record()))
		}
		ops := fs.record()
		segments := 0
		for i, op := range ops {
			if op.kind != opCreate || !isSegment(op.path) {
				continue
			}
			magic := opIndex(ops, i, is(opWrite, op.path))
			first := opIndex(ops, magic+1, is(opWrite, op.path))
			if first < 0 {
				continue // no commit reached it
			}
			acked := -1
			for _, n := range acks {
				if n > first {
					acked = n
					break
				}
			}
			if acked < 0 {
				continue
			}
			segments++
			synced := opIndex(ops[:acked], magic, is(opSync, op.path))
			dirSynced := opIndex(ops[:acked], i, is(opSyncDir, dir))
			if synced < 0 || dirSynced < 0 {
				t.Errorf("segment %s: first commit into it acknowledged at op %d, its sync at %d, the directory's at %d\n%v",
					filepath.Base(op.path), acked, synced, dirSynced, ops[i:acked])
			}
		}
		if segments < 3 {
			t.Errorf("%d segments took commits, want several rotations", segments)
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		// snapshot.tmp is written and synced before it is renamed into place.
		dir := t.TempDir()
		fs := &testFS{}
		e := newTestEngineFS(t, "norec", dir, Options{}, fs)
		defer e.WALClose()
		th := e.Thread(0)
		a, b, c := bankCells(e)
		for i := 1; i <= 3; i++ {
			if err := transfer(th, a, b, c, i); err != nil {
				t.Fatal(err)
			}
		}
		e.compact()
		ops := fs.record()
		tmp := filepath.Join(dir, snapshotTmp)
		renamed := opIndex(ops, 0, is(opRename, tmp))
		lastWrite := -1
		for i := 0; i < renamed; i++ {
			if is(opWrite, tmp)(ops[i]) {
				lastWrite = i
			}
		}
		synced := opIndex(ops[:max(renamed, 0)], lastWrite, is(opSync, tmp))
		if renamed < 0 || lastWrite < 0 || synced < 0 {
			t.Errorf("snapshot.tmp: last write at %d, sync at %d, rename at %d; want write < sync < rename\n%v",
				lastWrite, synced, renamed, ops)
		}
	})
}

// TestDiskFullInGroupBatch: a write that runs out of space after landing part
// of a group batch wedges the log. Nobody in the batch is acknowledged, every
// later transaction fails, and a fresh boot recovers exactly the commits
// acknowledged before it and cuts the bytes the batch left.
func TestDiskFullInGroupBatch(t *testing.T) {
	dir := t.TempDir()
	fs := &testFS{}
	e := newTestEngineFS(t, "norec", dir, Options{Fsync: FsyncGroup}, fs)
	const workers = 4
	cells := make([]engine.Cell, workers)
	for w := range cells {
		cells[w] = e.NewCell(0)
	}
	// The first fsync waits for release, so that the other workers' commits
	// gather behind it into one batch; the write of that batch lands the
	// first half of its first frame and finds the disk full.
	release := make(chan struct{})
	var held, full atomic.Bool
	fs.setFault(func(op *fsOp) error {
		switch {
		case op.kind == opSync && held.CompareAndSwap(false, true):
			<-release
		case op.kind == opWrite && full.Load():
			n, _ := frameLen(op.data)
			op.land = n / 2
			return syscall.ENOSPC
		}
		return nil
	})
	errs := make([]chan error, workers)
	for w := range errs {
		errs[w] = make(chan error, 1)
		go func() {
			errs[w] <- e.Thread(w).Run(func(tx engine.Txn) error { return engine.Set(tx, cells[w], 1) })
		}()
		waitAppended(e.log, uint64(w+1)) // worker 0 leads; the rest join its wait
	}
	full.Store(true)
	close(release)
	if err := <-errs[0]; err != nil {
		t.Fatalf("the synced commit: %v", err)
	}
	for w := 1; w < workers; w++ {
		if err := <-errs[w]; !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("worker %d in the failed batch: err = %v, want ENOSPC", w, err)
		}
	}
	if err := e.Thread(0).Run(func(tx engine.Txn) error { return engine.Set(tx, cells[0], 2) }); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("a later transaction: err = %v, want the sticky ENOSPC", err)
	}
	e.WALClose()

	e2 := newTestEngine(t, "norec", dir, Options{})
	defer e2.WALClose()
	info := e2.DurabilityInfo()
	if info.RecoveredSeq != 1 || info.TornTailBytes == 0 {
		t.Errorf("recovered through seq %d with %d torn bytes, want 1 and the batch's bytes cut", info.RecoveredSeq, info.TornTailBytes)
	}
	for w := range cells {
		cells[w] = e2.NewCell(0)
	}
	if err := e2.Thread(0).RunReadOnly(func(tx engine.Txn) error {
		for w, c := range cells {
			want := 0
			if w == 0 {
				want = 1
			}
			if n, err := engine.Get[int](tx, c); err != nil || n != want {
				t.Errorf("worker %d's cell recovered %d, %v; want %d", w, n, err, want)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sizes, ends := segmentSizes(t, dir); sizes[0] != ends[0] {
		t.Errorf("recovered segment: size %d, data end %d", sizes[0], ends[0])
	}
}

// TestDiskFullWritingSnapshot: a compaction whose snapshot.tmp runs out of
// space gives up and leaves the log as it was: commits go on being
// acknowledged, and the next boot deletes the leftover tmp and recovers them
// all from the segments.
func TestDiskFullWritingSnapshot(t *testing.T) {
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
	tmp := filepath.Join(dir, snapshotTmp)
	var full atomic.Bool
	fs.setFault(func(op *fsOp) error {
		if op.kind == opWrite && op.path == tmp && full.CompareAndSwap(false, true) {
			op.land = len(op.data) / 2
			return syscall.ENOSPC
		}
		return nil
	})
	e.compact()
	if !full.Load() {
		t.Fatal("compaction never wrote snapshot.tmp")
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("no leftover snapshot.tmp: %v", err)
	}
	for i := 5; i <= 8; i++ {
		if err := transfer(th, a, b, c, i); err != nil {
			t.Fatalf("transfer %d after the failed compaction: %v", i, err)
		}
	}
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, "norec", dir, Options{})
	defer e2.WALClose()
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("snapshot.tmp after boot: %v, want it deleted", err)
	}
	if info := e2.DurabilityInfo(); info.SnapshotSeq != 0 || info.RecoveredSeq != 8 || info.RecoveredCommits != 8 {
		t.Errorf("boot: snapshot %d, %d commits through seq %d; want no snapshot and 8 through 8",
			info.SnapshotSeq, info.RecoveredCommits, info.RecoveredSeq)
	}
}

// TestFailedCompactionWaitsForMoreLog: while no snapshot.tmp can be written,
// a failed compaction restarts the redo count as a successful one does, so
// the next attempt waits for another SnapshotBytes of log instead of
// starting on every commit; every commit is still acknowledged and
// recovered. Each commit waits out the compaction it started, so the count
// of attempts does not depend on how fast a capture runs.
func TestFailedCompactionWaitsForMoreLog(t *testing.T) {
	const snapBytes, commits = 64, 50
	dir := t.TempDir()
	tmp := filepath.Join(dir, snapshotTmp)
	fs := &testFS{}
	fs.setFault(func(op *fsOp) error {
		if op.kind == opWrite && op.path == tmp {
			return syscall.ENOSPC
		}
		return nil
	})
	e := newTestEngineFS(t, "norec", dir, Options{SnapshotBytes: snapBytes}, fs)
	th := e.Thread(0)
	a, b, c := bankCells(e)
	for i := 1; i <= commits; i++ {
		if err := transfer(th, a, b, c, i); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		e.compactWG.Wait() // the compaction this commit started, if any
	}
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}

	creates := 0
	for _, op := range fs.record() {
		if op.kind == opCreate && op.path == tmp {
			creates++
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, segmentPrefix+"*"+segmentSuffix))
	if err != nil {
		t.Fatal(err)
	}
	var appended int64
	for _, p := range segs {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		appended += st.Size() - int64(len(segmentMagic))
	}
	if limit := 1 + int(appended/snapBytes); creates == 0 || creates > limit {
		t.Errorf("%d commits (%d bytes of log) created snapshot.tmp %d times, want 1..%d",
			commits, appended, creates, limit)
	}
	if ga, gb, gc, rec := readState(t, dir); ga != 1000-commits || gb != 1000+commits || gc != commits || rec.lastSeq != commits {
		t.Errorf("recovered a=%d b=%d counter=%d through seq %d, want %d %d %d through %d",
			ga, gb, gc, rec.lastSeq, 1000-commits, 1000+commits, commits, commits)
	}
}
