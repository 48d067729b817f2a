package engine

import "repro/internal/glock"

// The "glock" backend: the coarse-global-lock honesty baseline. One
// reader/writer mutex serializes all transactions — no versions, no
// validation, no aborts — so it trivially satisfies opacity and anchors the
// low-thread-count end of every comparison: an STM only earns its keep where
// its curve crosses above this one.
func init() {
	Register("glock", valueInfo("coarse global RWMutex reference engine (no aborts, honesty baseline)"),
		func(o Options) (Engine, error) {
			return newValueEngine("glock", glock.NewObject, glock.New().Thread), nil
		})
}
