package core

import (
	"sync/atomic"

	"repro/internal/timebase"
	"repro/internal/val"
)

// Object is a transactional memory object: a cell traversing a sequence of
// immutable versions as update transactions commit (§1.1). Reads are
// invisible (readers leave no trace on the object); writes are visible (a
// writer registers itself in the object's locator, as in DSTM).
//
// The zero value is not usable; create objects with NewObject.
type Object struct {
	loc atomic.Pointer[locator]
}

// locator is the atomically swapped per-object descriptor (the DSTM trick
// the paper relies on in §2.3: "setting the transaction's state atomically
// commits — or discards in case of an abort — all object versions written by
// the transaction"). The object's logical head version is a function of the
// writer's status:
//
//	writer == nil              → cur is the latest committed version
//	writer active/committing   → cur is latest committed, tent is pending
//	writer committed           → tent is logically committed at writer.CT
//	writer aborted             → tent is logically discarded
//
// The two terminal states are settled lazily (by any thread that encounters
// them) into a writer-free locator, so no commit-time pass over the write
// set is needed.
type locator struct {
	writer *Tx
	tent   *version
	cur    *version
}

// version is one committed (or tentative) value of an object. Versions form
// a newest-first chain through prev; the chain is truncated to the runtime's
// MaxVersions on settle.
type version struct {
	// value is the payload: the typed representation with an unboxed
	// numeric lane (val.Value), so int-valued writes never box. It is
	// written only by the owning transaction while active, and read by
	// others only after the owner's status CAS (release) has been observed
	// (acquire), so access is race-free.
	value val.Value

	// validFrom is ⌊v.R⌋: the commit time of the writing transaction. The
	// genesis version uses timebase.NegInf. Tentative versions have it zero
	// until settle stamps them.
	validFrom timebase.Timestamp

	// fixedUB is ⌈v.R⌉ once the version has been superseded: the successor's
	// commit time minus one. It is nil while the version is the most recent
	// one (⌈v.R⌉ = ∞), and is set exactly once, before the superseding
	// locator becomes visible, so a reader that still sees this version as
	// head also sees an unset fixedUB only if the version is truly current.
	fixedUB atomic.Pointer[timebase.Timestamp]

	// prev links to the next older committed version. Atomic because settle
	// truncates the history concurrently with readers walking it.
	prev atomic.Pointer[version]

	// predUB is the inline buffer behind the *superseded predecessor's*
	// fixedUB pointer: the settler that builds this version computes the
	// predecessor's final bound (CT−1) here, so a supersession allocates no
	// separate Timestamp. Written once, by this version's builder, before
	// either CAS in settled can publish it.
	predUB timebase.Timestamp

	// selfLoc is the writer-free locator that publishes this version as the
	// object's head, embedded so settling a committed writer allocates the
	// version node and nothing else. Filled by the builder before the
	// locator CAS; never mutated afterwards.
	selfLoc locator
}

// NewObject creates a transactional object holding an initial value. The
// genesis version is valid since the beginning of time, so transactions on
// any time base can read it regardless of their clock's current value.
func NewObject(initial any) *Object {
	o := &Object{}
	v := &version{value: val.OfAny(initial), validFrom: timebase.NegInf}
	v.selfLoc.cur = v
	o.loc.Store(&v.selfLoc)
	return o
}

// settled returns the object's locator after resolving any terminal writer.
// The returned locator's writer is nil, active, or committing — never
// committed or aborted. Settling is idempotent and safe to race: the new
// head version node is freshly built by each settler and only one CAS wins.
func (o *Object) settled(maxVersions int) *locator {
	for {
		loc := o.loc.Load()
		w := loc.writer
		if w == nil {
			return loc
		}
		switch w.Status() {
		case StatusCommitted:
			ct := w.CT()
			head := &version{value: loc.tent.value, validFrom: ct}
			head.prev.Store(loc.cur)
			// Fix the superseded version's upper bound *before* publishing
			// the new head: a reader must never observe the new locator and
			// then find the old head still claiming to be current. The
			// bound lives in the candidate head's predUB buffer — racing
			// settlers compute the identical value (ct is fixed), and each
			// writes only its own freshly built head, so whichever pointer
			// wins the CAS the published bound is CT−1. (A head that loses
			// the locator CAS but wins this one stays reachable through the
			// fixedUB pointer alone — one stale node per supersession at
			// worst, the price of not allocating a Timestamp per settle.)
			head.predUB = ct.Pred()
			loc.cur.fixedUB.CompareAndSwap(nil, &head.predUB)
			trim(head, maxVersions)
			head.selfLoc.cur = head
			o.loc.CompareAndSwap(loc, &head.selfLoc)
		case StatusAborted:
			o.loc.CompareAndSwap(loc, &locator{cur: loc.cur})
		default:
			return loc
		}
	}
}

// trim cuts the version chain after maxVersions entries. maxVersions is at
// least 1 (the head itself).
func trim(head *version, maxVersions int) {
	v := head
	for i := 1; i < maxVersions; i++ {
		next := v.prev.Load()
		if next == nil {
			return
		}
		v = next
	}
	v.prev.Store(nil)
}

// upperBound returns ⌈v.R⌉ as stored: the fixed bound if the version has
// been superseded, ∞ otherwise.
func (v *version) upperBound() timebase.Timestamp {
	if ub := v.fixedUB.Load(); ub != nil {
		return *ub
	}
	return timebase.Inf
}

// prelimUB computes a conservative estimate of ⌈v.R⌉ according to the
// calling thread's time reference (getPrelimUB, Algorithm 3 lines 19–35).
//
//   - A superseded version's bound is exact and final.
//   - If the object is owned by a writer that has entered the commit phase
//     and fixed its commit time, the current version cannot remain valid
//     past that commit: the bound is CT−1 — except for asTx's own tentative
//     writes, which are deliberately overestimated to CT so the commit-time
//     overlap check passes for self-superseded objects (§2.3).
//   - Otherwise the version is valid at least until t, where t must be a
//     timestamp obtained (from this thread's clock) before the object state
//     was loaded.
//
// A committing writer whose commit time is still unset gets one assigned
// here (with the calling thread's clock). The paper's pseudocode returns t
// in that window, but its §2.4 correctness argument requires that a thread
// never reasons about a committing transaction whose commit time could
// still be chosen in the past — under preemption between the writer's clock
// read and its CT store, returning t would claim validity the superseding
// commit retroactively falsifies. Helping the CT into place first (the
// paper's own helper mechanism) guarantees any later supersession time
// exceeds t.
func prelimUB(o *Object, v *version, t timebase.Timestamp, asTx *Tx, clock timebase.Clock) timebase.Timestamp {
	if ub := v.fixedUB.Load(); ub != nil {
		return *ub
	}
	loc := o.loc.Load()
	if loc.cur != v {
		// v was superseded between the two loads — and a later writer may
		// already own the object, whose CT says nothing about v. settled
		// publishes the fixed bound before the new head, so it is there now
		// (nil only for asTx's own tentative version, which falls through).
		if ub := v.fixedUB.Load(); ub != nil {
			return *ub
		}
	}
	if w := loc.writer; w != nil {
		st := w.Status()
		if st == StatusCommitting || st == StatusCommitted {
			if st == StatusCommitting {
				ensureCT(w, clock)
			}
			if ct := w.CT(); !ct.IsZero() {
				if w == asTx {
					return ct
				}
				return ct.Pred()
			}
		}
	}
	return t
}
