// Package norec is a NOrec-style software transactional memory (Dalessandro,
// Spear, Scott, PPoPP 2010): the "minimal metadata" counterpoint to the
// timestamp-ordered engines in this repository. Where LSA and TL2 attach a
// version to every object, NOrec keeps no per-object metadata at all — the
// only shared state is one global sequence lock:
//
//   - the sequence lock is even when quiescent and odd while a writer is
//     committing; every committed update transaction bumps it by two;
//   - reads are logged with the value seen (a value log, not a version log);
//     whenever the transaction notices the sequence lock has moved it
//     re-validates the whole log by comparing current values — value-based
//     validation tolerates silent re-writes of the same value;
//   - commit acquires the sequence lock with one compare-and-swap, writes
//     back the buffered write set, and releases the lock.
//
// Within the paper's taxonomy NOrec is the extreme single-counter design:
// its time base is the sequence lock itself, so commits serialize on one
// cache line just like a shared-counter STM — but reads never touch shared
// metadata until the counter moves, which keeps read-dominated workloads
// cheap at low thread counts.
//
// Cells are typed two-word slots (val.AtomicCell): numeric payloads live
// unboxed in an atomic machine word, so an int-valued commit writes back
// without allocating; boxed payloads publish a fresh snapshot pointer, and
// the value log records the raw (num, box) snapshot — pointer equality
// proves a boxed value unchanged, and when pointers differ the values
// themselves are compared, which preserves NOrec's tolerance of silently
// restored values.
package norec

import (
	"errors"
	"runtime"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/val"
)

// ErrAborted signals that the transaction attempt failed and was retried.
var ErrAborted = errors.New("norec: transaction aborted")

// ErrReadOnly is returned by Write inside a read-only transaction.
var ErrReadOnly = errors.New("norec: write inside read-only transaction")

// Reason-tagged abort instances (see internal/abort): one per abort-site
// class, allocated once so tagging is free on the abort path. All satisfy
// errors.Is(err, ErrAborted).
var (
	// errAbortSnapshot: a read-time revalidation (snapshot extension) failed.
	errAbortSnapshot = &abort.Err{Sentinel: ErrAborted, Reason: abort.Snapshot,
		Msg: "norec: transaction aborted: snapshot extension failed"}
	// errAbortValidation: commit-time revalidation failed while acquiring the
	// sequence lock.
	errAbortValidation = &abort.Err{Sentinel: ErrAborted, Reason: abort.Validation,
		Msg: "norec: transaction aborted: commit-time validation failed"}
)

// STM is a NOrec universe: the global sequence lock shared by all
// transactions against it.
type STM struct {
	_   [64]byte
	seq atomic.Int64 // even = quiescent, odd = a writer holds the lock
	_   [64]byte
}

// New creates a universe with the sequence lock at zero.
func New() *STM { return &STM{} }

// Sequence exposes the sequence-lock value, for tests.
func (s *STM) Sequence() int64 { return s.seq.Load() }

// waitEven spins until the sequence lock seq is even (quiescent) and returns
// its value. Writers hold a lock only for the write-back, so the spin is
// short; after a few iterations it yields to the scheduler in case the
// writer's goroutine was preempted mid-commit. Protocol, not retry policy.
func waitEven(seq *atomic.Int64) int64 {
	for i := 0; ; i++ {
		v := seq.Load()
		if v&1 == 0 {
			return v
		}
		if i > 32 {
			runtime.Gosched()
		}
	}
}

// Object is a transactional cell: just the current typed value slot. NOrec
// keeps no per-object consistency metadata — that is the point.
type Object struct {
	cell val.AtomicCell
}

// NewObject creates an object holding initial.
func NewObject(initial any) *Object {
	o := &Object{}
	o.cell.Store(val.OfAny(initial))
	return o
}

// readEntry is one value-log record: the object and the raw (num, box)
// snapshot observed.
type readEntry struct {
	obj *Object
	num int64
	box *any
}

// stillValid re-checks one value-log entry against current memory: the
// pointer fast path first (a lane tag additionally compares the numeric
// word), then the value comparison. On a value match behind a fresh pointer
// (a silent restore) the entry adopts the current snapshot so future
// pointer checks stay fast. Callers guarantee stability externally (the
// sequence lock re-check around the scan).
func stillValid(r *readEntry) bool {
	num, box := r.obj.cell.Snapshot()
	if box == r.box {
		if _, tag := val.TagKind(box); tag {
			return num == r.num
		}
		return true
	}
	if !val.Decode(num, box).Equal(val.Decode(r.num, r.box)) {
		return false
	}
	r.num, r.box = num, box
	return true
}

// logValid re-checks a whole value log, under the same external stability
// guarantee as stillValid.
func logValid(reads []readEntry) bool {
	for i := range reads {
		if !stillValid(&reads[i]) {
			return false
		}
	}
	return true
}

type writeEntry struct {
	obj *Object
	v   val.Value
}

// smallWriteSet is the write-set size up to which lookup scans the entries
// slice instead of maintaining a map — the same ≤8-entry linear-scan fast
// path as the LSA core's access set (core.smallAccessSet): most transactions
// write a handful of objects, and for those a backward scan over a
// contiguous slice beats a map's hashing and per-attempt clearing cost.
const smallWriteSet = 8

// lookup finds the write-set entry for o: a linear scan while the set is
// small, the map built by add beyond that. A miss returns index −1 (0 is a
// valid entry index).
func (tx *Tx) lookup(o *Object) (int, bool) {
	if tx.windex != nil {
		if idx, ok := tx.windex[o]; ok {
			return idx, true
		}
		return -1, false
	}
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].obj == o {
			return i, true
		}
	}
	return -1, false
}

// add appends a write-set entry; crossing smallWriteSet promotes the index
// to the reusable map (cleared, not reallocated, after the first promotion
// on this thread).
func (tx *Tx) add(o *Object, v val.Value) {
	tx.writes = append(tx.writes, writeEntry{obj: o, v: v})
	if tx.windex != nil {
		tx.windex[o] = len(tx.writes) - 1
	} else if len(tx.writes) > smallWriteSet {
		if tx.spareIndex == nil {
			tx.spareIndex = make(map[*Object]int, 4*smallWriteSet)
		} else {
			clear(tx.spareIndex)
		}
		tx.windex = tx.spareIndex
		for i := range tx.writes {
			tx.windex[tx.writes[i].obj] = i
		}
	}
}

// Tx is one NOrec transaction attempt. Attempts are recycled across retries
// by their Thread: unlike the LSA core — where helpers may validate a
// previous attempt's frozen access set — nothing a NOrec attempt builds
// ever escapes to another thread (the write-back publishes fresh value
// snapshots, never pointers into the logs), so the read/write sets and the
// promoted index are reused attempt after attempt and the steady-state
// retry costs zero allocations.
type Tx struct {
	stm      *STM
	snapshot int64 // sequence-lock value the read set is consistent at
	readOnly bool
	boxed    bool // some write took the escape hatch
	reads    []readEntry
	writes   []writeEntry
	windex   map[*Object]int // nil while the write set is small
	// spareIndex keeps the promoted map alive between attempts so a large
	// write set pays the map allocation once per thread, not per attempt.
	spareIndex map[*Object]int
}

// reset rearms the attempt for reuse. Truncating the logs keeps their
// backing arrays (stale pointers in the unused capacity persist until
// overwritten — bounded by the largest set this thread has seen).
func (tx *Tx) reset(stm *STM, readOnly bool) {
	tx.stm = stm
	tx.snapshot = waitEven(&stm.seq)
	tx.readOnly = readOnly
	tx.boxed = false
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.windex = nil
}

// Read returns o's value in the transaction's snapshot as `any` — the
// generic escape-hatch view of ReadValue.
func (tx *Tx) Read(o *Object) (any, error) {
	v, err := tx.ReadValue(o)
	if err != nil {
		return nil, err
	}
	return v.Load(), nil
}

// ReadValue returns o's value in the transaction's snapshot, extending the
// snapshot (by re-validating the value log) whenever the sequence lock has
// moved since the last validation.
func (tx *Tx) ReadValue(o *Object) (val.Value, error) {
	if idx, ok := tx.lookup(o); ok {
		return tx.writes[idx].v, nil
	}
	for {
		num, box := o.cell.Snapshot()
		if tx.stm.seq.Load() == tx.snapshot {
			// No commit since the snapshot: the pair is consistent with
			// every previously logged value.
			tx.reads = append(tx.reads, readEntry{obj: o, num: num, box: box})
			return val.Decode(num, box), nil
		}
		// The clock bumped: re-validate the whole log, which also advances
		// the snapshot, then retry the read under the new snapshot.
		if err := tx.revalidate(); err != nil {
			return val.Value{}, err
		}
	}
}

// revalidate re-checks the entire value log against current memory and, on
// success, moves the snapshot up to a sequence-lock value the log is
// consistent at (NOrec's validate loop).
func (tx *Tx) revalidate() error {
	for {
		s := waitEven(&tx.stm.seq)
		if !logValid(tx.reads) {
			return errAbortSnapshot
		}
		// The log only proves consistency at s if no writer committed while
		// we scanned it.
		if tx.stm.seq.Load() == s {
			tx.snapshot = s
			return nil
		}
	}
}

// Write buffers the new value; it becomes visible at commit — the generic
// escape-hatch view of WriteValue.
func (tx *Tx) Write(o *Object, v any) error {
	return tx.WriteValue(o, val.OfAny(v))
}

// WriteValue buffers the new typed value; numeric-lane values never box.
func (tx *Tx) WriteValue(o *Object, v val.Value) error {
	if tx.readOnly {
		return ErrReadOnly
	}
	if v.Kind() == val.KindBoxed {
		tx.boxed = true
	}
	if idx, ok := tx.lookup(o); ok {
		tx.writes[idx].v = v
		return nil
	}
	tx.add(o, v)
	return nil
}

// commit runs the NOrec commit protocol: acquire the sequence lock at the
// snapshot (re-validating until the acquisition succeeds), write back, and
// release with the next even value.
func (tx *Tx) commit() error {
	if len(tx.writes) == 0 {
		// The value log was validated incrementally; the reads form a
		// consistent snapshot at tx.snapshot and nothing was written.
		return nil
	}
	for !tx.stm.seq.CompareAndSwap(tx.snapshot, tx.snapshot+1) {
		// Another transaction committed (or is committing) since our
		// snapshot: catch the snapshot up, then try again. A failure here is
		// a commit-time validation abort, not a read-time one.
		if tx.revalidate() != nil {
			return errAbortValidation
		}
	}
	// Sequence lock held (odd): write back the buffered values. Numeric
	// payloads land in the cells' atomic words — no allocation.
	for i := range tx.writes {
		w := &tx.writes[i]
		w.obj.cell.Store(w.v)
	}
	tx.stm.seq.Store(tx.snapshot + 2)
	return nil
}

// Thread is a worker context (API-compatible shape with the core engine's
// Thread so workloads translate directly). It owns the one Tx it recycles
// across attempts — a Thread must be used by a single goroutine.
type Thread struct {
	stm   *STM
	tx    Tx
	stats abort.Stats
}

// Thread creates a worker context.
func (s *STM) Thread(id int) *Thread { return &Thread{stm: s} }

// Stats returns this thread's counters, which its retry loop keeps. Read
// them only while the thread runs no transaction.
func (t *Thread) Stats() *abort.Stats { return &t.stats }

// Run executes fn transactionally, retrying on aborts.
func (t *Thread) Run(fn func(*Tx) error) error { return t.run(false, fn) }

// RunReadOnly executes fn as a read-only transaction. NOrec read-only
// transactions still keep the value log — incremental validation is what
// makes their snapshots consistent — but commit is empty.
func (t *Thread) RunReadOnly(fn func(*Tx) error) error { return t.run(true, fn) }

func (t *Thread) run(readOnly bool, fn func(*Tx) error) error {
	tx := &t.tx
	return abort.Retry(&t.stats, ErrAborted, func() error {
		tx.reset(t.stm, readOnly)
		err := fn(tx)
		if err == nil {
			err = tx.commit()
		}
		if err == nil && tx.boxed {
			t.stats.BoxedCommits++
		}
		return err
	})
}
