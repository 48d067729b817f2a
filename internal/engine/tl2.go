package engine

import (
	"repro/internal/timebase"
	"repro/internal/tl2"
)

// The "tl2" backend: the lean single-version TL2 reimplementation on its
// classic shared-counter version clock. Read-only transactions keep no read
// set; readers that arrive too late abort instead of reading history.
//
// The "tl2/extsync" backend composes the same algorithm with the externally
// synchronized time base of §3.2 (the same device and deviation bound as
// "lsa/extsync"). The pairing isolates what multi-versioning buys under
// clock deviation: both engines pay the masked ⪰ comparisons, but where LSA
// serves an older version from history, single-version TL2 can only abort —
// the throughput gap between "tl2/extsync" and "lsa/extsync" is the Fig. 2
// question asked from the other side.
//
// The "tl2/sharded" backend runs the same algorithm on the sharded software
// counter (per-shard epochs, lazy cross-shard synchronization): commits bump
// an uncontended shard instead of the global version clock, at the price of
// a masked uncertainty window that — with no version history to fall back
// to — turns into aborts on freshly written objects.
func init() {
	Register("tl2", valueInfo("single-version TL2 on its classic shared version clock"),
		func(o Options) (Engine, error) {
			return newTL2("tl2", tl2.New()), nil
		})
	Register("tl2/extsync", valueInfo("single-version TL2 on the externally synchronized ±dev clock", "nodes", "deviation"),
		func(o Options) (Engine, error) {
			tb, err := newExtSyncTimeBase(o)
			if err != nil {
				return nil, err
			}
			return newTL2("tl2/extsync", tl2.NewWithTimeBase(tb)), nil
		})
	Register("tl2/sharded", valueInfo("single-version TL2 on the sharded software counter", "nodes", "shard-window"),
		func(o Options) (Engine, error) {
			tb := timebase.NewShardedCounter(o.Nodes, o.ShardWindow)
			return newTL2("tl2/sharded", tl2.NewWithTimeBase(tb)), nil
		})
}

func newTL2(name string, stm *tl2.STM) Engine {
	return newValueEngine(name, tl2.NewObject, stm.Thread, nil)
}
