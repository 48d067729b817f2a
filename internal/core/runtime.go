package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/timebase"
)

// DefaultMaxVersions is the number of committed versions kept per object
// when the configuration does not specify one. A short history is enough
// for read-only transactions to dodge most concurrent updates without
// holding the whole past alive.
const DefaultMaxVersions = 4

// Config parameterizes a Runtime.
type Config struct {
	// TimeBase supplies timestamps. Required.
	TimeBase timebase.TimeBase

	// MaxVersions is the number of committed versions kept per object
	// (≥ 1). 1 yields a single-version STM in which read-only transactions
	// lose their abort-freedom — the §4.3 discussion's configuration.
	MaxVersions int
}

// Runtime is an instantiated transactional memory: a time base and a
// version-history depth shared by a set of worker threads. Create
// per-worker Threads with Thread; aggregate statistics with Stats after the
// workers have quiesced.
type Runtime struct {
	tb          timebase.TimeBase
	ord         timebase.Order // tb's comparison operators
	maxVersions int

	// threads heads the list of every Thread created, linked through
	// Thread.next: pushed by CAS, walked without a lock by advance and Stats.
	threads atomic.Pointer[Thread]

	_ [64]byte // every attempt loads epoch: keep its writes off tb and ord
	// epoch is the reclamation epoch update records are retired in (see
	// advance). It starts at epochGrace, so a record tagged 0 — one that was
	// never published — is reusable at once.
	epoch atomic.Uint64
	_     [56]byte
}

// epochGrace is how many epochs a retired update record waits before its
// thread reuses it. A thread that could still hold a pointer to the record
// pinned an epoch no later than the record's tag before loading it; the
// epoch cannot pass tag+1 while that thread stays pinned, so at tag+2 it has
// let go.
const epochGrace = 2

// advance moves the epoch from now to now+1 unless some thread is still
// pinned in an earlier one, and reports whether the epoch is now+1.
func (rt *Runtime) advance(now uint64) bool {
	for th := rt.threads.Load(); th != nil; th = th.next {
		if p := th.pin.Load(); p != 0 && p != now {
			return false
		}
	}
	return rt.epoch.CompareAndSwap(now, now+1)
}

// NewRuntime validates the configuration and builds a runtime.
func NewRuntime(cfg Config) (*Runtime, error) {
	if cfg.TimeBase == nil {
		return nil, fmt.Errorf("core: Config.TimeBase is required")
	}
	if cfg.MaxVersions < 0 {
		return nil, fmt.Errorf("core: MaxVersions must be ≥ 1 (or 0 for default), got %d", cfg.MaxVersions)
	}
	if cfg.MaxVersions == 0 {
		cfg.MaxVersions = DefaultMaxVersions
	}
	rt := &Runtime{tb: cfg.TimeBase, ord: timebase.OrderOf(cfg.TimeBase), maxVersions: cfg.MaxVersions}
	rt.epoch.Store(epochGrace)
	return rt, nil
}

// MustRuntime is NewRuntime for static configurations; it panics on error.
func MustRuntime(cfg Config) *Runtime {
	rt, err := NewRuntime(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

// TimeBase returns the runtime's time base.
func (rt *Runtime) TimeBase() timebase.TimeBase { return rt.tb }

// MaxVersions returns the per-object history depth.
func (rt *Runtime) MaxVersions() int { return rt.maxVersions }

// Thread creates the execution context for one worker. id selects the
// worker's clock (for per-node time bases); ids should be dense indices
// 0..N−1. Threads are not safe for concurrent use; create one per
// goroutine.
func (rt *Runtime) Thread(id int) *Thread {
	th := &Thread{rt: rt, id: id, clock: rt.tb.Clock(id)}
	for {
		th.next = rt.threads.Load()
		if rt.threads.CompareAndSwap(th.next, th) {
			return th
		}
	}
}

// Stats sums the per-thread counters. Call it only while no thread is
// executing transactions (the per-thread counters are intentionally
// unsynchronized so that collecting statistics cannot perturb the
// scalability the benchmarks measure).
func (rt *Runtime) Stats() abort.Stats {
	var total abort.Stats
	for th := rt.threads.Load(); th != nil; th = th.next {
		total.Add(&th.stats)
	}
	return total
}
