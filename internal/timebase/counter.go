package timebase

import "sync/atomic"

// SharedCounter is the classic LSA/TL2 time base: one integer shared by all
// threads, read at transaction start and incremented by every committing
// update transaction. It is exact and trivially linearizable, but the
// fetch-and-add on commit makes the counter's cache line a coherence hotspot:
// every commit invalidates the line in every other core's cache, so the cost
// of GetTime and GetNewTS grows with the commit rate of the whole system
// (§1.2, §4.2).
type SharedCounter struct {
	// pad the hot word to a cache line on both sides so false sharing with
	// neighbouring allocations does not pollute the measurement: we want to
	// measure contention on the counter itself, nothing else.
	_ [64]byte
	c atomic.Int64
	_ [64]byte
}

// NewSharedCounter returns a shared-counter time base starting at 1 (so that
// the zero Timestamp remains the "unset" sentinel).
func NewSharedCounter() *SharedCounter {
	sc := &SharedCounter{}
	sc.c.Store(1)
	return sc
}

// Clock implements TimeBase. All handles alias the same shared word.
func (sc *SharedCounter) Clock(id int) Clock { return counterClock{sc} }

// Name implements TimeBase.
func (sc *SharedCounter) Name() string { return "SharedCounter" }

// Deviation implements TimeBase: the counter is exact.
func (sc *SharedCounter) Deviation() int64 { return 0 }

// Now exposes the current counter value for tests.
func (sc *SharedCounter) Now() int64 { return sc.c.Load() }

type counterClock struct{ sc *SharedCounter }

// GetTime reads the shared counter. The load itself is cheap but misses in
// the local cache whenever any other thread has committed since the last
// read.
func (cc counterClock) GetTime() Timestamp {
	return Exact(cc.sc.c.Load())
}

// GetNewTS atomically increments the shared counter. The returned value is
// strictly greater than every value previously read or issued anywhere in
// the system, which trivially satisfies the §2.4 requirement.
func (cc counterClock) GetNewTS() Timestamp {
	return Exact(cc.sc.c.Add(1))
}

// TL2Counter is the shared counter with the commit-timestamp sharing
// optimization of Transactional Locking II (§1.2): a committing transaction
// tries to advance the counter with a single compare-and-swap, and if the
// C&S fails — meaning another transaction advanced it concurrently — it
// shares the freshly installed value instead of retrying. Under heavy commit
// traffic this bounds each committer to one C&S attempt. The paper reports
// the optimization "showed no advantages on our hardware" (§4.2); the
// tl2opt experiment reproduces that comparison.
type TL2Counter struct {
	_ [64]byte
	c atomic.Int64
	_ [64]byte
}

// NewTL2Counter returns a TL2-style counter time base starting at 1.
func NewTL2Counter() *TL2Counter {
	tc := &TL2Counter{}
	tc.c.Store(1)
	return tc
}

// Clock implements TimeBase. Each handle tracks the largest timestamp it has
// handed out so the per-thread strict-monotonicity contract of GetNewTS
// survives timestamp sharing.
func (tc *TL2Counter) Clock(id int) Clock { return &tl2Clock{tc: tc} }

// Name implements TimeBase.
func (tc *TL2Counter) Name() string { return "TL2Counter" }

// Deviation implements TimeBase: the counter is exact.
func (tc *TL2Counter) Deviation() int64 { return 0 }

// Now exposes the current counter value for tests.
func (tc *TL2Counter) Now() int64 { return tc.c.Load() }

type tl2Clock struct {
	tc   *TL2Counter
	last int64 // largest TS returned to this thread so far
}

func (c *tl2Clock) GetTime() Timestamp {
	v := c.tc.c.Load()
	if v > c.last {
		c.last = v
	}
	return Exact(v)
}

func (c *tl2Clock) GetNewTS() Timestamp {
	v := c.tc.c.Load()
	if c.tc.c.CompareAndSwap(v, v+1) {
		c.last = v + 1
		return Exact(v + 1)
	}
	// C&S failed: somebody else advanced the counter. Share their timestamp
	// if it is fresh enough for this thread, otherwise fall back to a real
	// increment to preserve strict per-thread monotonicity.
	shared := c.tc.c.Load()
	if shared > c.last {
		c.last = shared
		return Exact(shared)
	}
	n := c.tc.c.Add(1)
	c.last = n
	return Exact(n)
}
