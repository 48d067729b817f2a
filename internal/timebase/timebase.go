package timebase

// TimeBase is a source of timestamps for a time-based transactional memory.
// Conceptually it is one global clock; each thread accesses it through a
// per-thread Clock handle ("each thread p has access to a local clock Cp",
// §3.1). For counter-based time bases every handle reads and bumps the same
// shared word — that shared word is precisely the scalability bottleneck the
// paper measures. For real-time bases each handle reads an uncontended
// (local) clock.
type TimeBase interface {
	// Clock returns the clock handle for thread id. Handles are not safe for
	// concurrent use by multiple goroutines; the id namespace is dense and
	// small (worker indices). Calling Clock repeatedly with the same id is
	// allowed and returns an equivalent handle.
	Clock(id int) Clock

	// Name identifies the time base in benchmark output.
	Name() string

	// Deviation is the bound, in ticks, on how far any of the base's clocks
	// reads from real time (§3.2: |ECp(t) − t| ≤ dev for every clock p). It
	// is 0 for exact bases. OrderOf builds the base's comparison operators
	// from it.
	Deviation() int64
}

// Clock is a thread's view of the time base.
//
// Timestamps returned to a single thread are monotonic: if the thread reads
// t1 and then t2, then t2 ⪰ t1. They need not be strictly increasing and need
// not be unique across threads (§1.1).
type Clock interface {
	// GetTime returns the current time (Algorithm 1 line 1).
	GetTime() Timestamp

	// GetNewTS returns a timestamp strictly greater than any timestamp this
	// thread has obtained so far and, crucially, greater than the time at
	// which the call was made (§2.4). Committing update transactions use it
	// to choose their commit time.
	GetNewTS() Timestamp
}
