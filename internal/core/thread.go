package core

import (
	"repro/internal/abort"
	"repro/internal/timebase"
)

// Thread is one worker's execution context: its clock handle, its
// statistics, and the retry loop driving transaction attempts. A Thread
// must be used by a single goroutine.
type Thread struct {
	rt    *Runtime
	id    int
	clock timebase.Clock
	// index is the reusable object→entry map lent to transactions whose
	// access set outgrows the linear-scan fast path. Lazily allocated.
	index map[*Object]int
	// writeHint and entryHint pick the next update attempt's shape and size
	// its version chunk and any overflow slices, from what this thread's
	// recent commits through Run used (see sizeHint).
	writeHint int
	entryHint int
	// roTx is the one record this thread's declared read-only attempts run
	// in (see newTx); nil while a RunReadOnly has it out.
	roTx  *Tx
	stats abort.Stats
	_     [64]byte // keep each worker's stats off its neighbours' cache lines
}

// sizeHint moves a chunk-size hint toward what a commit just used: up at
// once, down by a quarter of the gap. A steady workload gets exactly one
// right-sized chunk per attempt; one odd transaction neither under-sizes the
// next chunk nor leaves every later small commit pinning an oversized one.
func sizeHint(hint, used int) int {
	if used >= hint {
		return used
	}
	return hint - (hint-used+3)/4
}

// ID returns the worker id the thread was created with.
func (th *Thread) ID() int { return th.id }

// Clock exposes the thread's clock handle (useful for workloads that want
// timestamps consistent with the STM's time base).
func (th *Thread) Clock() timebase.Clock { return th.clock }

// Stats returns this thread's counters. Read them only while the thread
// runs no transaction.
func (th *Thread) Stats() *abort.Stats { return &th.stats }

// Run executes fn as an update-capable transaction, retrying on aborts
// until it commits. fn may be invoked many times and must confine its side
// effects to transactional reads and writes. A non-ErrAborted error from fn
// aborts the transaction and is returned unchanged.
func (th *Thread) Run(fn func(*Tx) error) error {
	return th.run(false, fn)
}

// RunReadOnly executes fn as a declared read-only transaction: writes are
// rejected, and reads may be served from older object versions, which lets
// the transaction commit without any validation (§2.2: a read-only
// transaction can commit iff it has used a consistent snapshot). The *Tx is
// the thread's reused read-only record: fn must not keep it past its return.
func (th *Thread) RunReadOnly(fn func(*Tx) error) error {
	return th.run(true, fn)
}

func (th *Thread) run(readOnly bool, fn func(*Tx) error) error {
	for attempt := 0; ; attempt++ {
		tx := th.newTx(readOnly)
		err := fn(tx)
		if readOnly {
			// fn is done with the record; the next newTx resets it. (A
			// transaction nested in fn found roTx nil and made its own.)
			th.roTx = tx
		}
		switch {
		case err == nil:
			if err = tx.commit(); err == nil {
				th.stats.Commits++
				if tx.writes > 0 {
					th.writeHint = sizeHint(th.writeHint, tx.writes)
				}
				if !readOnly {
					th.entryHint = sizeHint(th.entryHint, len(tx.entries))
				}
				if tx.boxed {
					th.stats.BoxedCommits++
				}
				return nil
			}
		case err != ErrAborted:
			// Application-level failure: roll back and propagate.
			tx.abort()
			th.stats.UserAborts++
			return err
		default:
			tx.abort() // release any owned objects before retrying
		}
		th.stats.Aborts++
		r := abort.Contention // CauseNone: another thread aborted it
		switch tx.cause {
		case CauseNone:
			th.stats.AbortExternal++
		case CauseSnapshot:
			r = abort.Snapshot
			th.stats.AbortSnapshot++
		case CauseValidation:
			r = abort.Validation
			th.stats.AbortValidation++
		}
		abort.Pause(attempt, r)
	}
}

// newTx starts an attempt. An update attempt always gets a fresh record —
// a helper may still be validating a previous attempt's frozen access set,
// and an object may still hold one of its locators — in the shape the
// thread's hints call for: the inline entry and locator arrays ride in the
// same allocation, so a steady workload pays Tx + version chunk. A declared
// read-only attempt is never published: it keeps no access set, enters no
// locator, and is never helped or aborted as an enemy, so no other thread
// can hold a pointer to it. Those attempts reuse one record per Thread,
// reset field by field (Tx holds atomics); the fields not reset are ones a
// read-only attempt never writes.
func (th *Thread) newTx(readOnly bool) *Tx {
	var tx *Tx
	switch {
	case readOnly && th.roTx != nil:
		tx, th.roTx = th.roTx, nil
		tx.closed, tx.cause = false, CauseNone
		tx.status.Store(int32(StatusActive))
	case readOnly:
		tx = &Tx{} // no access set, no locators: no arrays
	case max(th.writeHint, th.entryHint) <= wideSet &&
		(th.writeHint > smallWriteSet || th.entryHint > smallAccessSet):
		w := &wideTx{}
		tx = &w.Tx
		tx.entries, tx.locs = w.inlineEntries[:0], w.inlineLocs[:0]
	default:
		s := &smallTx{}
		tx = &s.Tx
		tx.entries, tx.locs = s.inlineEntries[:0], s.inlineLocs[:0]
	}
	tx.th, tx.rt, tx.readOnly = th, th.rt, readOnly
	tx.begin()
	return tx
}

// help completes another transaction's two-phase commit with this thread's
// clock (Algorithm 3 line 13).
func (th *Thread) help(w *Tx) {
	th.stats.Helps++
	w.finishCommit(th.clock)
}
