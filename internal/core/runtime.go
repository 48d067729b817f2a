package core

import (
	"fmt"
	"sync"

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

	mu      sync.Mutex
	threads []*Thread
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
	return &Runtime{tb: cfg.TimeBase, ord: timebase.OrderOf(cfg.TimeBase), maxVersions: cfg.MaxVersions}, nil
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
	rt.mu.Lock()
	rt.threads = append(rt.threads, th)
	rt.mu.Unlock()
	return th
}

// Stats sums the per-thread counters. Call it only while no thread is
// executing transactions (the per-thread counters are intentionally
// unsynchronized so that collecting statistics cannot perturb the
// scalability the benchmarks measure).
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var total Stats
	for _, th := range rt.threads {
		total.add(&th.stats)
	}
	return total
}
