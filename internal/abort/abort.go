// Package abort defines the engine-family-wide abort-reason taxonomy. Every
// backend classifies each aborted attempt into one of a small fixed set of
// reasons, so the bench snapshot can report a uniform abort mix — which
// failure mode dominates under contention is the paper's actual subject —
// instead of per-engine ad-hoc counters.
//
// The taxonomy (deliberately coarser than the LSA core's internal causes,
// which map onto it 1:1):
//
//   - Snapshot: a read observed state inconsistent with the attempt's
//     snapshot and the snapshot could not be extended/revalidated — read-time
//     failures (NOrec revalidation from ReadValue, TL2 read-version checks,
//     wordstm validity-range extension failures).
//   - Validation: commit-time validation failed — the read set no longer
//     holds at the serialization point (NOrec commit revalidation, TL2 phase
//     1/3 version checks, rstmval/wordstm commit validation).
//   - Contention: the attempt gave up waiting for a lock held by another
//     thread (TL2 locked-orec aborts, rstmval held versioned locks, wordstm
//     lock-spin limits). The shared retry policy (Pause) yields on it at once.
//
// Engines tag their abort errors by wrapping the package-level sentinel in an
// Err (the Is method keeps errors.Is(err, pkg.ErrAborted) working) and run
// their attempts through Retry, which counts them per thread in a Counts
// array. User aborts — application errors carried out of the closure — pass
// through uncounted; the engine layer counts them itself.
package abort

// Reason is one abort-cause class of the cross-engine taxonomy.
type Reason uint8

const (
	// Snapshot is a read-time consistency failure (snapshot extension or
	// read revalidation failed).
	Snapshot Reason = iota
	// Validation is a commit-time validation failure.
	Validation
	// Contention is a bounded wait on a lock that ran out.
	Contention
	// NumReasons sizes Counts arrays.
	NumReasons
)

// String names the reason for tables and errors.
func (r Reason) String() string {
	switch r {
	case Snapshot:
		return "snapshot"
	case Validation:
		return "validation"
	case Contention:
		return "contention"
	}
	return "unknown"
}

// Counts tallies aborts by reason. Engines keep one per thread (written
// single-threaded in the retry loop) and expose a copy for aggregation.
type Counts [NumReasons]uint64

// Observe classifies err, increments the matching bucket and returns the
// reason it counted. An untagged abort error (the bare sentinel, from an
// engine path that predates the taxonomy) counts as Validation — the
// historical meaning of every engine's generic abort. Call only with abort
// errors; user errors are the caller's to count.
func (c *Counts) Observe(err error) Reason {
	r := Validation
	if e, ok := err.(*Err); ok {
		r = e.Reason
	}
	c[r]++
	return r
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	for i := range o {
		c[i] += o[i]
	}
}

// Total returns the sum over all reasons.
func (c Counts) Total() uint64 {
	var n uint64
	for _, v := range c {
		n += v
	}
	return n
}

// Err is a reason-tagged abort error. Engines declare package-level instances
// (one per abort site class) wrapping their existing ErrAborted sentinel, so
// tagging costs nothing on the abort path and errors.Is against the sentinel
// is preserved via Is.
type Err struct {
	// Sentinel is the engine's ErrAborted value this error stands in for.
	Sentinel error
	// Reason classifies the abort.
	Reason Reason
	// Msg is the rendered error text.
	Msg string
}

// Error implements the error interface.
func (e *Err) Error() string { return e.Msg }

// Is reports true for the wrapped sentinel, so errors.Is(err, ErrAborted)
// matches tagged aborts exactly as it matched the bare sentinel.
func (e *Err) Is(target error) bool { return target == e.Sentinel }
