package engine

import "repro/internal/tl2"

// The "tl2" backend: the lean single-version TL2 reimplementation on its
// own integer version clock. Read-only transactions keep no read set;
// readers that arrive too late abort instead of reading history.
func init() {
	Register("tl2", Info{Summary: "single-version TL2 on its own shared version clock"},
		func(o Options) (Engine, error) {
			return newValueEngine("tl2", tl2.NewObject, tl2.New().Thread), nil
		})
}
