package core

import "fmt"

// Stats are per-thread event counters. They are deliberately plain integers
// — each worker owns its own padded instance — so that statistics
// collection adds no shared-memory traffic to the hot path (a shared
// counter here would reintroduce exactly the bottleneck the paper's
// experiments isolate).
type Stats struct {
	// Commits counts successfully committed transactions.
	Commits uint64
	// Aborts counts aborted attempts (every retry is one abort).
	Aborts uint64
	// AbortSnapshot counts aborts because no consistent snapshot exists
	// (empty validity range or no suitable version).
	AbortSnapshot uint64
	// AbortValidation counts commit-time validation failures.
	AbortValidation uint64
	// AbortExternal counts aborts inflicted by other threads.
	AbortExternal uint64
	// UserAborts counts transactions abandoned by application error.
	UserAborts uint64
	// Extensions counts validity-range extension attempts.
	Extensions uint64
	// Helps counts completions of other transactions' commits.
	Helps uint64
	// EnemyAborts counts enemy transactions this thread aborted.
	EnemyAborts uint64
	// BoxedCommits counts commits that wrote at least one escape-hatch
	// (non-numeric) payload — the boxing-lane telemetry behind the bench
	// matrix's boxed% column.
	BoxedCommits uint64
}

func (s *Stats) add(o *Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.AbortSnapshot += o.AbortSnapshot
	s.AbortValidation += o.AbortValidation
	s.AbortExternal += o.AbortExternal
	s.UserAborts += o.UserAborts
	s.Extensions += o.Extensions
	s.Helps += o.Helps
	s.EnemyAborts += o.EnemyAborts
	s.BoxedCommits += o.BoxedCommits
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
	return fmt.Sprintf(
		"commits=%d aborts=%d (snapshot=%d validation=%d external=%d) ext=%d helps=%d",
		s.Commits, s.Aborts, s.AbortSnapshot, s.AbortValidation, s.AbortExternal,
		s.Extensions, s.Helps)
}
