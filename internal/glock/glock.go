// Package glock is the coarse-global-lock reference engine: every update
// transaction runs under one global mutex, read-only transactions share a
// read lock. It is deliberately the simplest possible implementation of the
// transactional interface — no versions, no validation, no aborts — and
// therefore trivially opaque: transactions are literally serialized (update
// against everything; read-only only against updates).
//
// Its role in the comparison matrix is honesty: at one or two threads a
// well-implemented global lock beats every STM, and any speedup an STM
// claims must be measured against this baseline, not against itself at one
// thread. Where the STMs pay per-access bookkeeping, glock pays one lock
// acquisition per transaction — so its throughput curve is flat-to-falling
// in the thread count, crossing below the scalable engines exactly where
// transactional concurrency starts to pay.
//
// Values are typed (val.Value): the global lock already serializes all cell
// access, so cells are plain Value slots and an int-valued transaction
// allocates nothing at all — the honesty baseline stays honest about GC
// pressure too.
package glock

import (
	"errors"
	"sync"

	"repro/internal/abort"
	"repro/internal/val"
)

// ErrReadOnly is returned by Write inside a read-only transaction. glock
// transactions never abort — it is the only error the package produces.
var ErrReadOnly = errors.New("glock: write inside read-only transaction")

// STM is a coarse-lock universe: one reader/writer mutex serializing all
// transactions against it.
type STM struct {
	mu sync.RWMutex
}

// New creates a universe.
func New() *STM { return &STM{} }

// Object is a transactional cell: a bare typed value slot, protected
// entirely by the universe's global lock.
type Object struct {
	v val.Value
}

// NewObject creates an object holding initial. An object is private until a
// committed write publishes a reference to it, so creation needs no lock.
func NewObject(initial any) *Object { return &Object{v: val.OfAny(initial)} }

type writeEntry struct {
	obj *Object
	v   val.Value
}

// Tx is one glock transaction. Writes are buffered and applied only when
// the closure succeeds, so a user error leaves memory untouched (the
// all-or-nothing half of atomicity; isolation comes from the lock). The
// owning Thread recycles one Tx across transactions, so the steady state
// allocates nothing.
type Tx struct {
	readOnly bool
	boxed    bool
	writes   []writeEntry
}

func (tx *Tx) reset(readOnly bool) {
	tx.readOnly = readOnly
	tx.boxed = false
	tx.writes = tx.writes[:0]
}

// Read returns the object's current value as `any` (the write buffer
// shadows committed state within the transaction).
func (tx *Tx) Read(o *Object) (any, error) {
	v, err := tx.ReadValue(o)
	if err != nil {
		return nil, err
	}
	return v.Load(), nil
}

// ReadValue returns the object's current typed value.
func (tx *Tx) ReadValue(o *Object) (val.Value, error) {
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].obj == o {
			return tx.writes[i].v, nil
		}
	}
	return o.v, nil
}

// Write buffers the new value; it is applied if the transaction closure
// returns nil.
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
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].obj == o {
			tx.writes[i].v = v
			return nil
		}
	}
	tx.writes = append(tx.writes, writeEntry{obj: o, v: v})
	return nil
}

// Thread is a worker context (API-compatible shape with the core engine's
// Thread so workloads translate directly). It owns the one Tx it recycles —
// a Thread must be used by a single goroutine.
type Thread struct {
	stm   *STM
	tx    Tx
	stats abort.Stats
}

// Thread creates a worker context.
func (s *STM) Thread(id int) *Thread { return &Thread{stm: s} }

// Stats returns this thread's counters. glock has no retry loop, so Run and
// RunReadOnly count each transaction's one attempt themselves. Read them
// only while the thread runs no transaction.
func (t *Thread) Stats() *abort.Stats { return &t.stats }

// Run executes fn under the global write lock. There are no retries: the
// first execution is the only one, and it cannot abort.
func (t *Thread) Run(fn func(*Tx) error) error {
	t.stm.mu.Lock()
	defer t.stm.mu.Unlock()
	tx := &t.tx
	tx.reset(false)
	if err := fn(tx); err != nil {
		t.stats.UserAborts++
		return err
	}
	for i := range tx.writes {
		tx.writes[i].obj.v = tx.writes[i].v
	}
	t.stats.Commits++
	if tx.boxed {
		t.stats.BoxedCommits++
	}
	return nil
}

// RunReadOnly executes fn under the shared read lock; concurrent read-only
// transactions proceed in parallel, writers are excluded.
func (t *Thread) RunReadOnly(fn func(*Tx) error) error {
	t.stm.mu.RLock()
	defer t.stm.mu.RUnlock()
	tx := &t.tx
	tx.reset(true)
	if err := fn(tx); err != nil {
		t.stats.UserAborts++
		return err
	}
	t.stats.Commits++
	return nil
}
