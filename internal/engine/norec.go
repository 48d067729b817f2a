package engine

import "repro/internal/norec"

// The "norec" backend: value-based validation over a single global sequence
// lock — no per-object metadata at all. Its time base is the sequence lock
// itself: commits serialize on one cache line like a shared-counter STM,
// but reads touch no shared state until the lock moves, so read-dominated
// workloads stay cheap at low thread counts. The minimal-metadata
// counterpoint to every timestamp-ordered engine in the registry.
func init() {
	Register("norec", valueInfo("value-validating NOrec over one global sequence lock"),
		func(o Options) (Engine, error) {
			return newValueEngine("norec", norec.NewObject, norec.New().Thread), nil
		})
}
