// Package abort defines the engine family's abort-reason taxonomy, its
// per-thread statistics record (Stats) and its retry loop (Retry). Every
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
// their attempts through Retry, which counts every outcome — commit, abort
// by reason, user abort — in the thread's Stats record.
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
