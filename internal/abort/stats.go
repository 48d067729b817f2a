package abort

import (
	"fmt"
	"strings"
)

// Stats is the one commit/abort record of the engine family. Every engine
// keeps one per thread, written single-threaded by the thread's retry loop
// (Retry, or the LSA core's own loop) — plain integers, so counting adds no
// shared-memory traffic to the hot path — and sums them for Engine.Stats
// only while no transaction runs.
//
// The Abort* fields are the cross-engine abort-reason taxonomy: every
// registered backend classifies each abort into exactly one of them —
// AbortSnapshot, AbortValidation, AbortExternal, AbortContention — so their
// sum equals Aborts on every engine (asserted by the conformance suite via
// UnclassifiedAborts). AbortExternal is the LSA core's abort inflicted by
// another thread; AbortConflict is a fifth bucket no in-tree engine sets.
type Stats struct {
	// Commits counts successfully committed transactions.
	Commits uint64 `json:"commits"`
	// Aborts counts aborted attempts (every retry is one abort).
	Aborts uint64 `json:"aborts"`
	// AbortSnapshot counts aborts for lack of a consistent snapshot.
	AbortSnapshot uint64 `json:"abort_snapshot,omitempty"`
	// AbortValidation counts commit-time validation failures.
	AbortValidation uint64 `json:"abort_validation,omitempty"`
	// AbortConflict counts aborts a transaction decreed against itself on a
	// write-write conflict. No in-tree engine sets this; kept for bench/,
	// which reports its share.
	AbortConflict uint64 `json:"abort_conflict,omitempty"`
	// AbortExternal counts aborts inflicted by other threads.
	AbortExternal uint64 `json:"abort_external,omitempty"`
	// AbortContention counts aborts from bounded waits on locks that ran out
	// while another thread held them.
	AbortContention uint64 `json:"abort_contention,omitempty"`
	// UserAborts counts transactions abandoned by application error.
	UserAborts uint64 `json:"user_aborts,omitempty"`
	// Extensions counts validity-range extension attempts.
	Extensions uint64 `json:"extensions,omitempty"`
	// Helps counts completions of other transactions' commits.
	Helps uint64 `json:"helps,omitempty"`
	// EnemyAborts counts enemy transactions aborted by this engine's
	// threads.
	EnemyAborts uint64 `json:"enemy_aborts,omitempty"`
	// BoxedCommits counts commits that wrote at least one escape-hatch
	// (boxed, non-numeric) payload — the complement of the unboxed int
	// lane. Omitted when zero, so snapshots from engines (or eras) without
	// the counter parse unchanged.
	BoxedCommits uint64 `json:"boxed_commits,omitempty"`
}

// Observe counts err as one abort, classified by its reason, and returns
// the reason. An untagged abort error (the bare sentinel, from an engine
// path that predates the taxonomy) counts as Validation — the historical
// meaning of every engine's generic abort. Call only with abort errors.
func (s *Stats) Observe(err error) Reason {
	r := Validation
	if e, ok := err.(*Err); ok {
		r = e.Reason
	}
	s.Aborts++
	switch r {
	case Snapshot:
		s.AbortSnapshot++
	case Validation:
		s.AbortValidation++
	case Contention:
		s.AbortContention++
	}
	return r
}

// Add accumulates o into s.
func (s *Stats) Add(o *Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.AbortSnapshot += o.AbortSnapshot
	s.AbortValidation += o.AbortValidation
	s.AbortConflict += o.AbortConflict
	s.AbortExternal += o.AbortExternal
	s.AbortContention += o.AbortContention
	s.UserAborts += o.UserAborts
	s.Extensions += o.Extensions
	s.Helps += o.Helps
	s.EnemyAborts += o.EnemyAborts
	s.BoxedCommits += o.BoxedCommits
}

// Attempts returns how many times transaction bodies ran: every attempt
// committed, aborted, or carried a user error out.
func (s Stats) Attempts() uint64 { return s.Commits + s.Aborts + s.UserAborts }

// BoxedShare returns the fraction of commits that took the boxing escape
// hatch (0 when nothing committed).
func (s Stats) BoxedShare() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.BoxedCommits) / float64(s.Commits)
}

// ClassifiedAborts returns the sum of the abort-taxonomy buckets.
func (s Stats) ClassifiedAborts() uint64 {
	return s.AbortSnapshot + s.AbortValidation + s.AbortConflict +
		s.AbortExternal + s.AbortContention
}

// UnclassifiedAborts returns how many aborts no taxonomy bucket accounts
// for. Every registered backend classifies all of its aborts, so this is 0
// on freshly produced stats (the conformance suite asserts it); legacy
// snapshot records may carry a nonzero value. Classified counts exceeding
// Aborts (impossible by construction) also report 0 rather than wrapping.
func (s Stats) UnclassifiedAborts() uint64 {
	c := s.ClassifiedAborts()
	if c >= s.Aborts {
		return 0
	}
	return s.Aborts - c
}

// AbortMix renders the abort-reason composition compactly for tables:
// percentage shares of Aborts as "snap12+val80+lock8" (reasons with a zero
// share omitted, "ext" for the LSA core's externally inflicted aborts, "cm"
// for AbortConflict, which no in-tree engine sets, "unk" for any
// unclassified remainder). "-" when nothing aborted.
func (s Stats) AbortMix() string {
	if s.Aborts == 0 {
		return "-"
	}
	parts := make([]string, 0, 6)
	add := func(label string, n uint64) {
		if n == 0 {
			return
		}
		parts = append(parts, fmt.Sprintf("%s%.0f", label, 100*float64(n)/float64(s.Aborts)))
	}
	add("snap", s.AbortSnapshot)
	add("val", s.AbortValidation)
	add("cm", s.AbortConflict)
	add("ext", s.AbortExternal)
	add("lock", s.AbortContention)
	add("unk", s.UnclassifiedAborts())
	return strings.Join(parts, "+")
}

// AbortRate returns aborts per attempt: Aborts / (Commits + Aborts).
func (s Stats) AbortRate() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// String renders the counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf("commits=%d aborts=%d (rate=%.4f) mix=%s", s.Commits, s.Aborts, s.AbortRate(), s.AbortMix())
}
