// Package tstm is a time-based software transactional memory for Go with
// scalable time bases, reproducing Riegel, Fetzer and Felber, "Time-based
// Transactional Memory with Scalable Time Bases" (SPAA 2007).
//
// A time-based STM tags object versions with timestamps and maintains, for
// every transaction, a validity range — the intersection of the validity
// ranges of all versions it has read. As long as that range is non-empty the
// transaction's snapshot is consistent, without re-validating the whole read
// set on every access. The timestamps come from a pluggable time base:
//
//   - a shared integer counter (the classic LSA/TL2 time base — simple, but
//     a coherence bottleneck on large machines),
//   - the same counter with TL2's commit-timestamp sharing optimization,
//   - perfectly synchronized hardware clocks (modeled on the SGI Altix
//     MMTimer), whose reads are contention-free,
//   - externally synchronized clocks with a bounded deviation, whose
//     comparison operators mask the reading uncertainty.
//
// # Usage
//
// Create a Runtime, then one Thread per worker goroutine, and run atomic
// blocks on typed transactional variables:
//
//	rt, _ := tstm.New(tstm.WithSharedCounter())
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
	"repro/internal/hwclock"
	"repro/internal/timebase"
)

// Tx is a transaction attempt. See the core engine for the protocol; user
// code only passes it to Var.Get and Var.Set.
type Tx = core.Tx

// Stats aggregates commit/abort/extension counters across threads.
type Stats = core.Stats

// ErrAborted is the internal retry signal. User closures should propagate
// it unchanged (returning it from an Atomic closure is always safe).
var ErrAborted = core.ErrAborted

// ErrReadOnly is returned by Var.Set inside AtomicReadOnly.
var ErrReadOnly = core.ErrReadOnly

// config collects the options for New.
type config struct {
	tb      timebase.TimeBase
	maxVers int
}

// Option configures a Runtime.
type Option func(*config) error

// WithSharedCounter selects the shared integer counter time base (the
// default): exact, linearizable, and contended under frequent commits.
func WithSharedCounter() Option {
	return func(c *config) error {
		c.tb = timebase.NewSharedCounter()
		return nil
	}
}

// WithTL2Counter selects the shared counter with TL2-style commit-timestamp
// sharing on CAS failure.
func WithTL2Counter() Option {
	return func(c *config) error {
		c.tb = timebase.NewTL2Counter()
		return nil
	}
}

// WithShardedCounter selects the sharded software counter time base:
// per-shard cache-line-padded counters (thread ids map to shards modulo
// shards) lazily synchronized through a shared epoch base that commits touch
// only once per window/2 ticks. Scales commits like a hardware clock without
// needing one; timestamps carry a masked deviation of window/2 ticks, so
// freshly committed versions look "possibly concurrent" for one window.
// window < 2 selects the default window.
func WithShardedCounter(shards int, window int64) Option {
	return func(c *config) error {
		if shards <= 0 {
			return fmt.Errorf("tstm: WithShardedCounter shards must be positive, got %d", shards)
		}
		c.tb = timebase.NewShardedCounter(shards, window)
		return nil
	}
}

// WithMMTimer selects a simulated perfectly synchronized hardware clock
// with the MMTimer's parameters (20 MHz, 7-tick read latency) and one
// register per worker node.
func WithMMTimer(nodes int) Option {
	return func(c *config) error {
		if nodes <= 0 {
			return fmt.Errorf("tstm: WithMMTimer nodes must be positive, got %d", nodes)
		}
		c.tb = timebase.NewMMTimer(nodes)
		return nil
	}
}

// WithIdealClock selects a free-to-read, nanosecond-granularity perfectly
// synchronized clock — the upper bound on what a hardware time base could
// provide.
func WithIdealClock(nodes int) Option {
	return func(c *config) error {
		if nodes <= 0 {
			return fmt.Errorf("tstm: WithIdealClock nodes must be positive, got %d", nodes)
		}
		c.tb = timebase.NewPerfectClock(hwclock.New(hwclock.IdealConfig(nodes)))
		return nil
	}
}

// WithExtSyncClocks selects externally synchronized per-node clocks: each
// node's clock is offset from true time by at most maxOffsetTicks, and the
// STM masks a total advertised deviation derived from the device's worst
// case. The tick rate is 1 GHz.
func WithExtSyncClocks(nodes int, maxOffsetTicks int64) Option {
	return func(c *config) error {
		if nodes <= 0 {
			return fmt.Errorf("tstm: WithExtSyncClocks nodes must be positive, got %d", nodes)
		}
		if maxOffsetTicks < 0 {
			return fmt.Errorf("tstm: negative clock offset bound %d", maxOffsetTicks)
		}
		dev := hwclock.New(hwclock.Config{
			TickHz:         1_000_000_000,
			Nodes:          nodes,
			MaxOffsetTicks: maxOffsetTicks,
			Seed:           1,
		})
		ec, err := timebase.NewExtSyncClock(dev, dev.Config().MaxErrorTicks())
		if err != nil {
			return fmt.Errorf("tstm: %w", err)
		}
		c.tb = ec
		return nil
	}
}

// WithMaxVersions sets how many committed versions each object keeps.
// 1 yields a single-version STM; larger histories let read-only
// transactions dodge concurrent updates.
func WithMaxVersions(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("tstm: MaxVersions must be ≥ 1, got %d", n)
		}
		c.maxVers = n
		return nil
	}
}

// Runtime is an instantiated transactional memory.
type Runtime struct {
	rt *core.Runtime
}

// New builds a Runtime from the given options. With no options it uses the
// shared-counter time base and a four-version history.
func New(opts ...Option) (*Runtime, error) {
	c := &config{}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	if c.tb == nil {
		c.tb = timebase.NewSharedCounter()
	}
	rt, err := core.NewRuntime(core.Config{TimeBase: c.tb, MaxVersions: c.maxVers})
	if err != nil {
		return nil, err
	}
	return &Runtime{rt: rt}, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(opts ...Option) *Runtime {
	r, err := New(opts...)
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
func (t *Thread) Stats() Stats { return t.th.Stats() }

// Unwrap exposes the underlying engine thread.
func (t *Thread) Unwrap() *core.Thread { return t.th }
