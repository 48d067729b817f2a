package engine

import "repro/internal/norec"

// The "norec" backend: value-based validation over a single global sequence
// lock — no per-object metadata at all. Its time base is the sequence lock
// itself: commits serialize on one cache line like a shared-counter STM,
// but reads touch no shared state until the lock moves, so read-dominated
// workloads stay cheap at low thread counts. The minimal-metadata
// counterpoint to every timestamp-ordered engine in the registry.
//
// The "norec/combined" backend keeps the single sequence lock but amortizes
// it with flat-combining commits: committers publish validated logs into
// padded per-thread slots, one thread wins the lock and applies the whole
// pending batch under a single hold and a single clock bump — the batching
// pole of the scalable-time-base design space. It is the plain universe with
// its commit step replaced (norec.NewCombined), so it shares "norec"'s
// adapter instantiation.
func init() {
	Register("norec", valueInfo("value-validating NOrec over one global sequence lock"),
		func(o Options) (Engine, error) {
			return newValueEngine("norec", norec.NewObject, norec.New().Thread, nil), nil
		})
	Register("norec/combined", valueInfo("NOrec with flat-combining batched commits"),
		func(o Options) (Engine, error) {
			stm := norec.NewCombined()
			return newValueEngine("norec/combined", norec.NewObject, stm.Thread, func(s *Stats) {
				s.CommitBatches, s.BatchedCommits = stm.BatchStats()
			}), nil
		})
}
