// Package tstm is a time-based software transactional memory for Go with
// scalable time bases, reproducing Riegel, Fetzer and Felber, "Time-based
// Transactional Memory with Scalable Time Bases" (SPAA 2007).
//
// A time-based STM tags object versions with timestamps and maintains, for
// every transaction, a validity range — the intersection of the validity
// ranges of all versions it has read. As long as that range is non-empty the
// transaction's snapshot is consistent, without re-validating the whole read
// set on every access. The timestamps come from one of the paper's time
// bases, chosen by engine name:
//
//   - "lsa/shared": a shared integer counter (the classic LSA/TL2 time
//     base — simple, but a coherence bottleneck on large machines; the
//     default),
//   - "lsa/tl2ts": the same counter with TL2's commit-timestamp sharing,
//   - "lsa/mmtimer": perfectly synchronized hardware clocks modeled on the
//     SGI Altix MMTimer, whose reads are contention-free,
//   - "lsa/ideal": a free-to-read, nanosecond-granularity perfectly
//     synchronized clock,
//   - "lsa/extsync": externally synchronized clocks with an advertised
//     deviation bound (Options.Deviation, in 1 GHz ticks) that the
//     comparison operators mask.
//
// # Usage
//
// Create a Runtime, then one Thread per worker goroutine, and run atomic
// blocks on typed transactional variables:
//
//	rt, _ := tstm.New("lsa/mmtimer", tstm.Options{Nodes: 8})
//	acct := tstm.NewVar(100)
//	th := rt.Thread(0)
//	err := th.Atomic(func(tx *tstm.Tx) error {
//		bal, err := acct.Get(tx)
//		if err != nil {
//			return err
//		}
//		return acct.Set(tx, bal+1)
//	})
//
// The closure may run multiple times (aborted attempts are retried); it must
// not have side effects beyond Get/Set. Errors other than the internal
// abort signal cancel the transaction and are returned unchanged.
package tstm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// Tx is a transaction attempt. See the core engine for the protocol; user
// code only passes it to Var.Get and Var.Set.
type Tx = core.Tx

// Stats aggregates commit/abort/extension counters across threads.
type Stats = engine.Stats

// ErrAborted is the internal retry signal. User closures should propagate
// it unchanged (returning it from an Atomic closure is always safe).
var ErrAborted = core.ErrAborted

// ErrReadOnly is returned by Var.Set inside AtomicReadOnly.
var ErrReadOnly = core.ErrReadOnly

// Options configures New: Nodes sizes the per-node clocks, MaxVersions the
// per-object history (1 yields a single-version STM) and Deviation the
// ext-sync bound. The remaining fields apply to no LSA engine.
type Options = engine.Options

// Runtime is an instantiated transactional memory.
type Runtime struct {
	rt *core.Runtime
}

// New builds a Runtime on the named LSA engine of the engine registry, with
// the registry's defaults for zero Options fields. An empty name selects
// "lsa/shared". Engines that are not the LSA core are rejected.
func New(name string, o Options) (*Runtime, error) {
	if name == "" {
		name = "lsa/shared"
	}
	e, err := engine.New(name, o)
	if err != nil {
		return nil, fmt.Errorf("tstm: %w", err)
	}
	lsa, ok := e.(interface{ Unwrap() *core.Runtime })
	if !ok {
		if d, ok := e.(engine.Durable); ok {
			// Release the discarded engine's log; the rejection is the
			// error the caller needs.
			_ = d.WALClose()
		}
		return nil, fmt.Errorf("tstm: engine %q is not an LSA-core engine", name)
	}
	return &Runtime{rt: lsa.Unwrap()}, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(name string, o Options) *Runtime {
	r, err := New(name, o)
	if err != nil {
		panic(err)
	}
	return r
}

// TimeBaseName identifies the configured time base.
func (r *Runtime) TimeBaseName() string { return r.rt.TimeBase().Name() }

// Thread creates the execution context for one worker goroutine. id selects
// the worker's clock for per-node time bases; use dense indices 0..N−1.
// A Thread must not be shared between goroutines.
func (r *Runtime) Thread(id int) *Thread {
	return &Thread{th: r.rt.Thread(id)}
}

// Stats sums all threads' counters. Only call while no transactions run.
func (r *Runtime) Stats() Stats { return r.rt.Stats() }

// Unwrap exposes the underlying engine runtime for benchmarks and tools
// inside this module.
func (r *Runtime) Unwrap() *core.Runtime { return r.rt }

// Thread is a worker's transactional context.
type Thread struct {
	th *core.Thread
}

// Atomic runs fn as an update-capable transaction, retrying until commit.
func (t *Thread) Atomic(fn func(*Tx) error) error { return t.th.Run(fn) }

// AtomicReadOnly runs fn as a declared read-only transaction. Reads may be
// served from older object versions, so long analytics transactions do not
// abort (and never force) concurrent updates.
func (t *Thread) AtomicReadOnly(fn func(*Tx) error) error { return t.th.RunReadOnly(fn) }

// Stats returns this thread's counters.
func (t *Thread) Stats() Stats { return *t.th.Stats() }

// Unwrap exposes the underlying engine thread.
func (t *Thread) Unwrap() *core.Thread { return t.th }
