// Package tl2 is a compact reimplementation of the Transactional Locking II
// algorithm (Dice, Shalev, Shavit, DISC 2006), the lean single-version
// time-based STM the paper discusses in §1.2. It serves as a baseline
// against LSA-RT:
//
//   - one version per object — readers that arrive "too late" abort instead
//     of falling back to an older version;
//   - no validity-range extensions — an object may only be read if its last
//     update precedes the transaction's start time, except for the implicit
//     revalidation during commit;
//   - commit locks the write set, fetches a new timestamp from the version
//     clock, and validates the read set against the start time.
//
// The version clock is TL2's own: one padded integer word that every update
// commit increments — the shared-counter time base whose scalability the
// paper questions — and each object's versioned lock is a single integer
// word beside its value, so a commit publishes versions without allocating.
// The commit-timestamp sharing optimization is measured on the LSA core
// instead ("lsa/tl2ts"), where it does not break a validation short cut.
package tl2

import (
	"errors"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/val"
)

// ErrAborted signals that the transaction attempt failed and was retried.
var ErrAborted = errors.New("tl2: transaction aborted")

// ErrReadOnly is returned by Write inside a read-only transaction.
var ErrReadOnly = errors.New("tl2: write inside read-only transaction")

// Reason-tagged abort instances (see internal/abort): one per abort-site
// class, allocated once. All satisfy errors.Is(err, ErrAborted).
var (
	// errAbortSnapshot: a read found a version newer than rv (or the version
	// word moved under the value load) — TL2's "arrived too late" abort,
	// which LSA would serve from an older version.
	errAbortSnapshot = &abort.Err{Sentinel: ErrAborted, Reason: abort.Snapshot,
		Msg: "tl2: transaction aborted: read version newer than start time"}
	// errAbortValidation: a version check failed at commit time (phase 1
	// write-set freshness or phase 3 read-set validation).
	errAbortValidation = &abort.Err{Sentinel: ErrAborted, Reason: abort.Validation,
		Msg: "tl2: transaction aborted: commit-time validation failed"}
	// errAbortContention: a lock word was (or became) held by a concurrent
	// committer — read-time locked orecs and phase-1 lock races.
	errAbortContention = &abort.Err{Sentinel: ErrAborted, Reason: abort.Contention,
		Msg: "tl2: transaction aborted: versioned lock held by another commit"}
)

// STM is a TL2 universe: the global version clock shared by all objects
// created against it.
type STM struct {
	_ [64]byte
	// clock is the global version clock: the write version of the last
	// update commit to fetch one (0 before any). Padded to its own cache line
	// like timebase.SharedCounter, so commits contend on it and nothing else.
	clock atomic.Uint64
	_     [64]byte
}

// New creates a TL2 universe with the version clock at 0.
func New() *STM { return &STM{} }

// lockBit marks a versioned lock word as held by a committer; the version
// lives in the bits above it. A word is version<<1 while unlocked.
const lockBit = 1

// Object is a single-version transactional cell: a versioned lock word and
// the current typed value slot (numeric payloads live unboxed in the cell's
// atomic word; see val.AtomicCell for the consistency contract — here the
// lock word sandwich is the reader's discard signal).
//
// Two equal unlocked words observed around a value load prove the object
// did not change in between: every commit installs a version fetched from
// the clock after it locked the object, so an object's versions strictly
// increase, and a failed commit restores the exact pre-lock word without
// having touched the value.
type Object struct {
	meta atomic.Uint64
	cell val.AtomicCell
}

// NewObject creates an object at version 0 holding initial; every
// transaction's read version is ≥ 0, so new objects are always readable.
func NewObject(initial any) *Object {
	o := &Object{}
	o.cell.Store(val.OfAny(initial))
	return o
}

// smallWriteSet is the write-set size up to which wlookup scans the writes
// slice instead of maintaining a map — the same ≤8-entry linear-scan fast
// path as the LSA core's access set and norec's write set. Most TL2
// transactions write a handful of objects; below the threshold no map is
// ever allocated.
const smallWriteSet = 8

// Tx is one TL2 transaction attempt. Attempts are recycled across retries
// by their Thread: nothing a TL2 attempt builds escapes it — commit
// publishes version numbers and value snapshots, never pointers into the
// logs — so the read/write sets and the promoted index
// are reused attempt after attempt and the steady-state retry costs zero
// allocations.
type Tx struct {
	stm      *STM
	rv       uint64 // read version: clock reading at start
	readOnly bool
	boxed    bool      // some write took the escape hatch
	reads    []*Object // update attempts only; validated at commit
	writes   []writeEntry
	windex   map[*Object]int // nil while the write set is small
	// spareIndex keeps the promoted map alive between attempts so a large
	// write set pays the map allocation once per thread, not per attempt.
	spareIndex map[*Object]int
}

// reset rearms the attempt for reuse. Truncating the logs keeps their
// backing arrays (stale pointers in the unused capacity persist until
// overwritten — bounded by the largest set this thread has seen).
func (tx *Tx) reset(rv uint64, readOnly bool) {
	tx.rv = rv
	tx.readOnly = readOnly
	tx.boxed = false
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.windex = nil
}

type writeEntry struct {
	obj  *Object
	v    val.Value
	prev uint64 // pre-lock version word, restored on a failed commit
}

// wlookup finds the write-set entry for o: a linear scan while the set is
// small, the map built by wadd beyond that. A miss returns index −1 (0 is a
// valid entry index).
func (tx *Tx) wlookup(o *Object) (int, bool) {
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

// wadd appends a write-set entry; crossing smallWriteSet promotes the index
// to the attempt's reusable map (cleared, not reallocated, after the first
// promotion on this thread).
func (tx *Tx) wadd(o *Object, v val.Value) {
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

// Read returns the object's value as `any` — the generic escape-hatch view
// of ReadValue (numeric-lane payloads are boxed here).
func (tx *Tx) Read(o *Object) (any, error) {
	v, err := tx.ReadValue(o)
	if err != nil {
		return nil, err
	}
	return v.Load(), nil
}

// ReadValue returns the object's value if its version precedes the
// transaction's start time; otherwise the attempt aborts (TL2 has no
// extensions and no old versions). The lock word sandwich around the
// two-word cell snapshot discards any torn pair.
func (tx *Tx) ReadValue(o *Object) (val.Value, error) {
	if idx, ok := tx.wlookup(o); ok {
		return tx.writes[idx].v, nil
	}
	m1 := o.meta.Load()
	if m1&lockBit != 0 {
		return val.Value{}, errAbortContention
	}
	num, box := o.cell.Snapshot()
	if o.meta.Load() != m1 || m1>>1 > tx.rv {
		return val.Value{}, errAbortSnapshot
	}
	if !tx.readOnly {
		tx.reads = append(tx.reads, o)
	}
	return val.Decode(num, box), nil
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
	if idx, ok := tx.wlookup(o); ok {
		tx.writes[idx].v = v
		return nil
	}
	tx.wadd(o, v)
	return nil
}

// commit runs the TL2 commit protocol.
func (tx *Tx) commit() error {
	if len(tx.writes) == 0 {
		// Reads were individually validated against rv; nothing to do.
		return nil
	}
	// Phase 1: lock the write set (try-lock; abort on any conflict).
	lockedUpTo := -1
	for i := range tx.writes {
		o := tx.writes[i].obj
		m := o.meta.Load()
		if m&lockBit != 0 {
			tx.unlock(lockedUpTo)
			return errAbortContention
		}
		if m>>1 > tx.rv {
			// A write-set object was committed past rv: the read of it (or the
			// blind write's implicit freshness requirement) no longer holds.
			tx.unlock(lockedUpTo)
			return errAbortValidation
		}
		if !o.meta.CompareAndSwap(m, m|lockBit) {
			// Lost the lock race to a concurrent committer.
			tx.unlock(lockedUpTo)
			return errAbortContention
		}
		tx.writes[i].prev = m
		lockedUpTo = i
	}
	// Phase 2: fetch the write version by incrementing the clock.
	wv := tx.stm.clock.Add(1)
	// Phase 3: validate the read set — unless wv is rv's immediate
	// successor: the increment is exclusive, so no transaction can have
	// committed in between (the TL2 short cut).
	if wv != tx.rv+1 {
		for _, o := range tx.reads {
			if _, own := tx.wlookup(o); own {
				continue
			}
			if m := o.meta.Load(); m&lockBit != 0 || m>>1 > tx.rv {
				tx.unlock(lockedUpTo)
				return errAbortValidation
			}
		}
	}
	// Phase 4: install values, then release each lock with the new version.
	// Numeric payloads land in the cells' atomic words, so an int-valued
	// commit allocates nothing.
	for i := range tx.writes {
		w := &tx.writes[i]
		w.obj.cell.Store(w.v)
		w.obj.meta.Store(wv << 1)
	}
	return nil
}

// unlock releases write locks [0..upTo] after a failed commit, restoring
// the pre-lock version word.
func (tx *Tx) unlock(upTo int) {
	for i := 0; i <= upTo; i++ {
		tx.writes[i].obj.meta.Store(tx.writes[i].prev)
	}
}

// Thread is a worker context (API-compatible shape with the core engine's
// Thread so workloads translate directly). It owns the one Tx it recycles
// across attempts — a Thread must be used by a single goroutine.
type Thread struct {
	stm   *STM
	tx    Tx
	stats abort.Stats
}

// Stats returns this thread's counters, which its retry loop keeps. Read
// them only while the thread runs no transaction.
func (t *Thread) Stats() *abort.Stats { return &t.stats }

// Thread creates a worker context. TL2 has one version clock for all
// threads, so id is unused; it keeps the shape of the other engines.
func (s *STM) Thread(id int) *Thread { return &Thread{stm: s} }

// Run executes fn transactionally, retrying on aborts.
func (t *Thread) Run(fn func(*Tx) error) error { return t.run(false, fn) }

// RunReadOnly executes fn as a read-only transaction. TL2 read-only
// transactions keep no read set at all: each read is validated against the
// start time, and commit is empty.
func (t *Thread) RunReadOnly(fn func(*Tx) error) error { return t.run(true, fn) }

func (t *Thread) run(readOnly bool, fn func(*Tx) error) error {
	tx := &t.tx
	tx.stm = t.stm
	return abort.Retry(&t.stats, ErrAborted, func() error {
		tx.reset(t.stm.clock.Load(), readOnly)
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
