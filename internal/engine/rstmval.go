package engine

import "repro/internal/rstmval"

// The "rstmval" backend: the validating STM with the RSTM commit-counter
// heuristic — consistency by read-set revalidation, gated by a global
// counter of attempted commits.
func init() {
	Register("rstmval", Info{Summary: "validating STM with the RSTM commit-counter revalidation heuristic"},
		func(o Options) (Engine, error) {
			return newValueEngine("rstmval", rstmval.NewObject, rstmval.New().Thread), nil
		})
}
