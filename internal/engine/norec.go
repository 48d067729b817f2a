package engine

import "repro/internal/norec"

// The "norec" backend: value-based validation over a single global sequence
// lock — no per-object metadata at all. Its time base is the sequence lock
// itself: commits serialize on one cache line like a shared-counter STM,
// but reads touch no shared state until the lock moves, so read-dominated
// workloads stay cheap at low thread counts. The minimal-metadata
// counterpoint to every timestamp-ordered engine in the registry.
//
// The "norec/striped" backend partitions that one sequence lock by cell:
// 64 padded stripe locks, per-stripe snapshots re-established together, and
// commits that lock (in ascending order) and validate only the stripes they
// touched — the ROADMAP probe for where value-based validation stops being
// the bottleneck once commits no longer serialize on one cache line. It is
// the adaptive universe below with escalation disabled (norec.NewStriped),
// not a protocol of its own.
//
// The "norec/combined" backend keeps the single sequence lock but amortizes
// it with flat-combining commits: committers publish validated logs into
// padded per-thread slots, one thread wins the lock and applies the whole
// pending batch under a single hold and a single clock bump — the batching
// pole of the scalable-time-base design space. It is the plain universe with
// its commit step replaced (norec.NewCombined), so it shares "norec"'s
// adapter instantiation.
//
// The "norec/adaptive" backend is the hybrid pole: it runs the striped
// protocol while transactions stay narrow, and escalates an attempt that
// fans out past Options.EscalateStripes stripes (or keeps aborting striped)
// to a global write-window protocol whose reads validate with one shared
// load.
func init() {
	Register("norec", valueInfo("value-validating NOrec over one global sequence lock"),
		func(o Options) (Engine, error) {
			return newValueEngine("norec", norec.NewObject, norec.New().Thread, nil), nil
		})
	Register("norec/striped", valueInfo("NOrec over 64 partitioned per-cell sequence locks"),
		func(o Options) (Engine, error) {
			return newValueEngine("norec/striped", norec.NewObject, norec.NewStriped().Thread, nil), nil
		})
	Register("norec/combined", valueInfo("NOrec with flat-combining batched commits"),
		func(o Options) (Engine, error) {
			stm := norec.NewCombined()
			return newValueEngine("norec/combined", norec.NewObject, stm.Thread, func(s *Stats) {
				s.CommitBatches, s.BatchedCommits = stm.BatchStats()
			}), nil
		})
	Register("norec/adaptive",
		valueInfo("striped NOrec escalating wide or aborting attempts to a global write window",
			"stripes", "escalate-stripes", "escalate-aborts"),
		func(o Options) (Engine, error) {
			stm, err := norec.NewAdaptive(norec.AdaptiveOptions{
				Stripes:         o.Stripes,
				EscalateStripes: o.EscalateStripes,
				EscalateAborts:  o.EscalateAborts,
			})
			if err != nil {
				return nil, err
			}
			return newValueEngine("norec/adaptive", norec.NewObject, stm.Thread, func(s *Stats) {
				s.EscalatedCommits = stm.EscalatedCommits()
			}), nil
		})
}
