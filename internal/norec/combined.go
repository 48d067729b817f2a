package norec

// The combined variant: NOrec with flat-combining commits. Plain NOrec
// serializes every update commit on the global sequence lock — one
// compare-and-swap, one write-back, one +2 bump per commit, all on the same
// cache line. A universe from NewCombined keeps the single lock and the
// whole execution phase — reads, incremental validation and the buffered
// write set are the plain Tx's — and replaces only the commit step: a
// committer publishes its validated logs into a padded per-thread slot and
// then either finds its outcome already decided, or wins the sequence lock
// and becomes the combiner — applying every pending commit in the slot
// array under ONE lock hold and ONE clock bump, and posting each batched
// committer's outcome into its slot.
//
// Exactness of batched validation: the combiner re-validates each request's
// whole value log against current memory immediately before applying its
// writes, in slot order. Memory only changes under the held lock by the
// combiner's own earlier write-backs, so a request whose read set was
// invalidated by an earlier member of the same batch fails this validation
// and is aborted — batching never silently applies a stale commit — while a
// request whose reads still match (including NOrec's silent-restore
// tolerance) commits exactly as if it had held the lock itself.
//
// Synchronization: the owner's plain log writes are published to the
// combiner by the slot's req pointer store (owner: logs, then req.Store;
// combiner: req.Load, then logs), and the combiner's outcome — plus any
// snapshot adoption stillValid performed inside the logs — travels back
// through the outcome store the owner spins on. The owner never touches its
// Tx between those two atomics, so recycling stays single-owner.
//
// Within the paper's taxonomy this is the batching pole of the
// scalable-time-base design space: the shared clock still exists, but its
// cost is paid once per batch instead of once per commit.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Slot outcome states. The zero value is idle (no request ever armed); the
// owner arms the slot with slotPending before publishing the request, and
// only the combiner moves it to a decided state.
const (
	slotPending int32 = 1 + iota
	slotCommitted
	slotAborted
)

// cslot is one thread's combining slot, padded so spinning on one slot
// never bounces a neighbour's line.
type cslot struct {
	req     atomic.Pointer[Tx]
	outcome atomic.Int32
	_       [52]byte
}

// combiner is the state a combined universe adds to the sequence lock: the
// slot array and the batch telemetry.
type combiner struct {
	// Lock acquisitions that applied at least one commit, and the commits
	// they applied. batchedCommits/batches is the mean combining factor —
	// how many clock bumps the batching saved.
	batches        atomic.Uint64
	batchedCommits atomic.Uint64

	mu    sync.Mutex
	slots atomic.Pointer[[]*cslot]
}

// NewCombined creates a universe whose commits are flat-combined, with the
// sequence lock at zero.
func NewCombined() *STM { return &STM{comb: &combiner{}} }

// BatchStats returns the number of combining batches applied and the total
// commits they contained (zero on a plain universe). Call while no
// transactions run.
func (s *STM) BatchStats() (batches, commits uint64) {
	if s.comb == nil {
		return 0, 0
	}
	return s.comb.batches.Load(), s.comb.batchedCommits.Load()
}

// addSlot registers a new combining slot (copy-on-write so the combiner
// reads the slice without a lock). One allocation per Thread, none per
// transaction.
func (s *combiner) addSlot() *cslot {
	sl := &cslot{}
	s.mu.Lock()
	var next []*cslot
	if old := s.slots.Load(); old != nil {
		next = append(append(make([]*cslot, 0, len(*old)+1), *old...), sl)
	} else {
		next = []*cslot{sl}
	}
	s.slots.Store(&next)
	s.mu.Unlock()
	return sl
}

// commitCombined publishes the attempt (whose write set is not empty) into
// slot and waits for a combiner (possibly this thread) to decide it.
func (tx *Tx) commitCombined(slot *cslot) error {
	stm := tx.stm
	slot.outcome.Store(slotPending)
	slot.req.Store(tx)
	for i := 0; ; i++ {
		if out := slot.outcome.Load(); out != slotPending {
			if out == slotCommitted {
				return nil
			}
			// The combiner's pre-apply validation failed: a commit-time
			// validation abort, same class as losing the plain CAS race.
			return errAbortValidation
		}
		// Not decided yet: try to become the combiner. A failed CAS means
		// another combiner holds the lock and will visit our slot if it
		// loaded the request in time — otherwise we get the lock next.
		if v := stm.seq.Load(); v&1 == 0 && stm.seq.CompareAndSwap(v, v+1) {
			stm.combine(v)
			if slot.outcome.Load() == slotCommitted {
				return nil
			}
			return errAbortValidation
		}
		if i > 32 {
			runtime.Gosched()
		}
	}
}

// combine runs with the sequence lock held (odd, acquired from even v): it
// scans every slot, validates and applies each pending request in slot
// order, posts outcomes, and releases the lock with a single +2 bump for
// the whole batch — or restores v exactly when every request failed
// validation, since no memory was written and concurrent value logs
// snapshotted at v must stay valid.
func (stm *STM) combine(v int64) {
	slots := *stm.comb.slots.Load()
	applied := uint64(0)
	for _, s := range slots {
		req := s.req.Load()
		if req == nil {
			continue
		}
		out := slotAborted
		// Current memory includes the write-backs of earlier batch members:
		// a request they invalidated fails here and aborts instead of being
		// silently applied.
		if logValid(req.reads) {
			req.writeBack()
			applied++
			out = slotCommitted
		}
		// Clear the request before posting the outcome: the owner is free to
		// recycle the Tx the moment the outcome lands.
		s.req.Store(nil)
		s.outcome.Store(out)
	}
	if applied > 0 {
		stm.comb.batches.Add(1)
		stm.comb.batchedCommits.Add(applied)
		stm.seq.Store(v + 2)
	} else {
		stm.seq.Store(v)
	}
}
