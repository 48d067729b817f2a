package core

// Status is the lifecycle state of a transaction (§2.3). The two-phase
// commit of update transactions passes through StatusCommitting so that
// other threads can help the transaction complete (or force it to abort)
// instead of blocking behind it.
type Status int32

const (
	// StatusActive — the transaction is executing its body.
	StatusActive Status = iota
	// StatusCommitting — an update transaction has entered the first commit
	// phase: its read/write set is frozen, its commit time is being chosen
	// and validated. Any thread may complete the commit from here.
	StatusCommitting
	// StatusCommitted — terminal: all written versions became valid
	// atomically at the commit time.
	StatusCommitted
	// StatusAborted — terminal: all written versions were discarded.
	StatusAborted
)

// String renders the status for diagnostics.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusCommitting:
		return "committing"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return "invalid"
	}
}

// Terminal reports whether the status is committed or aborted.
func (s Status) Terminal() bool {
	return s == StatusCommitted || s == StatusAborted
}

// AbortCause classifies why a transaction aborted, for the runtime's
// statistics. The breakdown matters when reproducing §4.3: synchronization
// errors show up as snapshot aborts (empty validity range), not conflicts.
type AbortCause int

const (
	// CauseNone — not aborted.
	CauseNone AbortCause = iota
	// CauseSnapshot — the validity range became empty: no version of some
	// object overlaps the transaction's snapshot (Algorithm 2 line 31,
	// Algorithm 3 line 11).
	CauseSnapshot
	// CauseValidation — commit-time extension failed: some read version was
	// superseded before the commit time (Algorithm 2 line 46).
	CauseValidation
	// CauseExternal — another thread aborted this transaction (a writer that
	// waited it out on an object it owns, or a helper that failed its
	// validation).
	CauseExternal
)

// String renders the cause for diagnostics.
func (c AbortCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseSnapshot:
		return "snapshot"
	case CauseValidation:
		return "validation"
	case CauseExternal:
		return "external"
	default:
		return "invalid"
	}
}
