// Package rstmval is a validating STM baseline in the style the paper
// attributes to RSTM (§1.2): single-version objects, invisible reads, and
// consistency maintained by validation — re-checking that every previously
// read object is unchanged — on each access.
//
// Naive per-access validation costs O(reads so far), so the total read
// overhead grows quadratically with transaction size. RSTM's heuristic
// bounds this: a global "commit counter" counts attempted commits of update
// transactions; a transaction revalidates only when the counter has moved
// since its last check. The price is exactly what §1.2 points out: the
// counter must be read on every object access, so even fully disjoint
// updates drag a shared cache line through every reader — the
// reproduction's baselines experiment measures that effect against LSA-RT.
//
// Values are typed (val.Value): the versioned lock word sandwiches the
// two-word cell snapshot, so numeric payloads stay unboxed end to end and
// the write-back of an int-valued commit allocates nothing. The Thread
// recycles one Tx (logs and promoted index) across attempts, with the same
// ≤8-entry linear-scan write-set fast path as the other engines.
package rstmval

import (
	"errors"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/val"
)

// ErrAborted signals that the transaction attempt failed and was retried.
var ErrAborted = errors.New("rstmval: transaction aborted")

// ErrReadOnly is returned by Write inside a read-only transaction.
var ErrReadOnly = errors.New("rstmval: write inside read-only transaction")

// Reason-tagged abort instances (see internal/abort): one per abort-site
// class, allocated once. All satisfy errors.Is(err, ErrAborted).
var (
	// errAbortSnapshot: a read-time revalidation failed or the version word
	// moved under the value load — the snapshot cannot be kept consistent.
	errAbortSnapshot = &abort.Err{Sentinel: ErrAborted, Reason: abort.Snapshot,
		Msg: "rstmval: transaction aborted: read-time revalidation failed"}
	// errAbortValidation: the commit-time (or write-free final) validation
	// failed.
	errAbortValidation = &abort.Err{Sentinel: ErrAborted, Reason: abort.Validation,
		Msg: "rstmval: transaction aborted: commit-time validation failed"}
	// errAbortContention: a versioned lock was held (or won) by a concurrent
	// committer.
	errAbortContention = &abort.Err{Sentinel: ErrAborted, Reason: abort.Contention,
		Msg: "rstmval: transaction aborted: versioned lock held by another commit"}
)

// STM is a validating-STM universe with its global commit counter.
type STM struct {
	_  [64]byte
	cc atomic.Int64 // attempted update commits
	_  [64]byte
}

// New creates a universe.
func New() *STM { return &STM{} }

// CommitCounter exposes the heuristic counter, for tests.
func (s *STM) CommitCounter() int64 { return s.cc.Load() }

// Object is a single-version cell: a versioned lock word (version<<1|locked)
// and the typed value slot.
type Object struct {
	meta atomic.Int64
	cell val.AtomicCell
}

// NewObject creates an object at version 0 holding initial.
func NewObject(initial any) *Object {
	o := &Object{}
	o.cell.Store(val.OfAny(initial))
	return o
}

func locked(meta int64) bool { return meta&1 == 1 }

// smallWriteSet is the write-set size up to which wlookup scans the writes
// slice instead of maintaining a map — the shared ≤8-entry linear-scan fast
// path (see core.smallAccessSet).
const smallWriteSet = 8

// Tx is one transaction attempt, recycled across attempts by its Thread:
// nothing an attempt builds escapes it (write-back publishes fresh cell
// snapshots, never log pointers), so the steady-state retry allocates
// nothing.
type Tx struct {
	stm      *STM
	readOnly bool
	boxed    bool
	lastCC   int64
	reads    []readEntry
	writes   []writeEntry
	windex   map[*Object]int // nil while the write set is small
	// spareIndex keeps the promoted map alive between attempts so a large
	// write set pays the map allocation once per thread, not per attempt.
	spareIndex map[*Object]int
}

func (tx *Tx) reset(stm *STM, readOnly bool) {
	tx.stm = stm
	tx.readOnly = readOnly
	tx.boxed = false
	tx.lastCC = stm.cc.Load()
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.windex = nil
}

type readEntry struct {
	obj  *Object
	meta int64 // version word observed at first read
}

type writeEntry struct {
	obj *Object
	v   val.Value
}

// wlookup finds the write-set entry for o: a linear scan while the set is
// small, the map built by wadd beyond that. A miss returns index −1.
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
// to the attempt's reusable map.
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

// Read opens the object as `any` — the generic escape-hatch view of
// ReadValue.
func (tx *Tx) Read(o *Object) (any, error) {
	v, err := tx.ReadValue(o)
	if err != nil {
		return nil, err
	}
	return v.Load(), nil
}

// ReadValue opens the object, then revalidates the read set if the commit
// counter indicates system progress since the last check. The version-word
// sandwich around the two-word cell snapshot discards any torn pair.
func (tx *Tx) ReadValue(o *Object) (val.Value, error) {
	if idx, ok := tx.wlookup(o); ok {
		return tx.writes[idx].v, nil
	}
	m1 := o.meta.Load()
	if locked(m1) {
		return val.Value{}, errAbortContention
	}
	num, box := o.cell.Snapshot()
	if o.meta.Load() != m1 {
		return val.Value{}, errAbortSnapshot
	}
	tx.reads = append(tx.reads, readEntry{obj: o, meta: m1})
	// The heuristic: read the global counter on *every* access; skip
	// validation while it is unchanged. The poll comes after the object
	// read, and the validation includes it: committers bump the counter
	// after locking and before writing, so any commit whose writes this
	// read could have seen has moved the counter by now — polling first
	// would let a whole commit land between poll and read unvalidated.
	if cc := tx.stm.cc.Load(); cc != tx.lastCC {
		if !tx.validate() {
			return val.Value{}, errAbortSnapshot
		}
		tx.lastCC = cc
	}
	return val.Decode(num, box), nil
}

// validate checks that every read object is unchanged (and unlocked).
func (tx *Tx) validate() bool {
	for _, r := range tx.reads {
		m := r.obj.meta.Load()
		if m != r.meta {
			if _, own := tx.wlookup(r.obj); own && m == r.meta|1 {
				continue // locked by ourselves during commit
			}
			return false
		}
	}
	return true
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

// commit locks the write set, signals progress on the commit counter,
// validates the read set, and installs the new values.
func (tx *Tx) commit() error {
	if len(tx.writes) == 0 {
		// Read-only (or write-free) transactions validated incrementally;
		// one final check makes the snapshot current at commit.
		if !tx.validate() {
			return errAbortValidation
		}
		return nil
	}
	lockedUpTo := -1
	for i := range tx.writes {
		o := tx.writes[i].obj
		m := o.meta.Load()
		if locked(m) || !o.meta.CompareAndSwap(m, m|1) {
			tx.unlock(lockedUpTo)
			return errAbortContention
		}
		lockedUpTo = i
	}
	// Announce the attempted commit: this is what other transactions'
	// heuristics poll.
	tx.stm.cc.Add(1)
	if !tx.validate() {
		tx.unlock(lockedUpTo)
		return errAbortValidation
	}
	for i := range tx.writes {
		w := &tx.writes[i]
		w.obj.cell.Store(w.v)
		w.obj.meta.Store((w.obj.meta.Load() >> 1 << 1) + 2) // version+1, unlocked
	}
	return nil
}

// unlock releases write locks [0..upTo] after a failed commit.
func (tx *Tx) unlock(upTo int) {
	for i := 0; i <= upTo; i++ {
		o := tx.writes[i].obj
		o.meta.Store(o.meta.Load() &^ 1)
	}
}

// Thread is a worker context (API-compatible shape with the core engine).
// It owns the one Tx it recycles — single goroutine only.
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

// RunReadOnly executes fn as a read-only transaction (writes rejected).
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
