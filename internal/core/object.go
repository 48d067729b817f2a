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
//	writer == nil              → ver is the latest committed version
//	writer active/committing   → ver is pending, ver.prev is latest committed
//	writer committed           → ver is logically committed at writer.CT
//	writer aborted             → ver is logically discarded
//
// The two terminal states are settled lazily, by any thread that
// encounters them, into a writer-free locator — at the latest by the
// writer's owner before it reuses the record (Thread.retire) — so no
// commit-time pass over the write set is needed. A writer-free locator is
// the one embedded in its version: its writer is nil and its ver is that
// version, both set when the version is cut from its chunk and never
// changed, so any thread may read both through any writer-free locator it
// loaded. A writer locator lives in its attempt's record (or in a chunk the
// record keeps), and its ver is rewritten, before the CAS that publishes it,
// each time a reused record's attempt takes it; its writer is the record
// itself and is set once, when the record is allocated or the locator is
// first cut from a chunk. So a thread may read the writer of any locator it
// loaded, but must be pinned before it reads anything else through another
// thread's record, or any field but owner and selfLoc of another thread's
// version (see Thread.protect).
type locator struct {
	writer *Tx
	ver    *version
}

// head returns the latest committed version under a locator whose writer is
// nil, active or committing. It is nil only for a stale writer locator: the
// writer committed, was settled, and trim cut its version's predecessor
// (MaxVersions 1) after the caller loaded the locator — reload o.loc.
func (l *locator) head() *version {
	if l.writer == nil {
		return l.ver
	}
	return l.ver.prev.Load()
}

// version is one committed (or tentative) value of an object. Versions form
// a newest-first chain through prev; the chain is truncated to the runtime's
// MaxVersions on settle. A version outlives the transaction that wrote it,
// so apart from prev and its owner thread it points at nothing but itself:
// a pointer from a version into a Tx (or into another attempt's chunk) would
// keep the whole commit history reachable through the Tx's access set. The
// owner is alive anyway, held by the runtime's thread list.
//
// Versions are recycled by the thread that wrote them: the settler that
// cuts one off a history retires it if it is the owner and otherwise hands
// it to the owner's inbox, and the owner takes it as a tentative version
// again an epoch grace period later (see trim, Thread.cut and Tx.newWrite).
// No field of a version links it into a list: a pinned reader may still
// read prev, until, content and selfLoc after the cut, so the inbox and the
// owner's list hold pointers to it instead. A genesis version has no owner
// and is never reused.
type version struct {
	content

	// until is the Word of the successor's commit time once the version has
	// been superseded, 0 while it is the most recent one (⌈v.R⌉ = ∞). It is
	// set exactly once, before the superseding locator becomes visible, so a
	// reader that still sees this version as head also sees it unset only
	// if the version is truly current. ⌈v.R⌉ is that CT minus one, taken on
	// load (upperBound): CT−1 itself may be the zero timestamp (CT 1 on an
	// exact clock that starts at 0), whose word is the unset 0. Unlike
	// content, a helper may load it unprotected: validating another
	// thread's access set (finishCommit), it reads the bounds of versions
	// that thread protected, and may still do so after that thread's
	// attempt is over and the versions are reused. Its load finds some
	// word, and the attempt, already terminal, is not changed by what it
	// concludes; so a reuse resets until atomically.
	until atomic.Int64

	// prev links to the next older committed version; for a tentative
	// version, to the committed head it was acquired over (set by the owner
	// before the locator CAS). Atomic because settle truncates the history
	// concurrently with readers walking it.
	prev atomic.Pointer[version]

	// owner is the thread whose attempts write this version, set when it is
	// cut from its chunk and never changed; nil on a genesis version. Any
	// thread may read it unpinned (see Thread.protect).
	owner *Thread

	// selfLoc is the writer-free locator that publishes this version as the
	// object's head, embedded so settling allocates nothing. Its ver is set
	// with owner, when the version is cut from its chunk, and never changes:
	// a reused version publishes itself through the same locator.
	selfLoc locator
}

// content is the part of a version that only the thread that wrote it and
// readers that looked into it protected (see Thread.protect) ever read, so
// that a reuse may clear it with plain stores (Thread.newVersion).
type content struct {
	// value is the payload: the typed representation with an unboxed
	// numeric lane (val.Value), so int-valued writes never box. It is
	// written only by the owning transaction while active, and read by
	// others only after the owner's status CAS (release) has been observed
	// (acquire), so access is race-free.
	value val.Value

	// from is the Word of ⌊v.R⌋: the commit time of the writing
	// transaction, stamped by the settler that promotes the tentative
	// version in place. 0 while the version is tentative — and for good on a
	// genesis version, which was never written by a transaction and is
	// valid since −∞.
	from atomic.Int64
}

// validFrom returns ⌊v.R⌋ of a committed version: its stamp, −∞ without one.
func (v *version) validFrom() timebase.Timestamp {
	if w := v.from.Load(); w != 0 {
		return timebase.FromWord(w)
	}
	return timebase.NegInf
}

// NewObject creates a transactional object holding an initial value. The
// genesis version is valid since the beginning of time, so transactions on
// any time base can read it regardless of their clock's current value.
func NewObject(initial any) *Object {
	o := &Object{}
	v := &version{content: content{value: val.OfAny(initial)}}
	v.selfLoc.ver = v
	o.loc.Store(&v.selfLoc)
	return o
}

// settled returns the object's locator after resolving any terminal writer.
// The returned locator's writer is nil, active, or committing — never
// committed or aborted. Settling is idempotent and safe to race, and it
// builds nothing: a committed writer's tentative version is promoted in
// place, an aborted writer's is dropped for the version it was acquired
// over. Racing settlers publish the same values in the same order —
// predecessor's bound, validFrom, trim, locator — so a reader that can see
// the new head can see both stamps. Both stamps are the writer's CT word,
// CASed from 0: only one successor of a version ever commits, and its CT is
// fixed before StatusCommitted, so every settler writes the same word and
// none has to win anything first.
//
// th is the calling thread, pinned before it looks into another thread's
// record or version, and the one that retires what its trim cuts; nil only
// where nothing can be reused meanwhile (a nil th retires nothing). The
// returned locator's head is not protected: a caller that reads its fields
// protects it first.
func (o *Object) settled(maxVersions int, th *Thread) *locator {
	if loc := o.loc.Load(); loc.writer == nil {
		return loc // the common case, inlined into every access
	}
	return o.settle(maxVersions, th)
}

// settle is settled's loop, for a locator that had a writer.
func (o *Object) settle(maxVersions int, th *Thread) *locator {
	for {
		loc := o.loc.Load()
		w := loc.writer
		if w == nil {
			return loc
		}
		if th.protect(w.th) {
			continue
		}
		switch w.Status() {
		case StatusCommitted:
			tent := loc.ver
			// Fix the superseded version's upper bound *before* publishing
			// the new head: a reader must never observe the new locator and
			// then find the old head still claiming to be current. (Load
			// order: from still unset after prev was read ⇒ nobody had
			// reached trim ⇒ base is the predecessor, not nil.)
			base := tent.prev.Load()
			if tent.from.Load() == 0 {
				if th.protect(base.owner) {
					continue
				}
				ct := w.ct.Load()
				base.until.CompareAndSwap(0, ct)
				tent.from.CompareAndSwap(0, ct)
			}
			if !trim(tent, maxVersions, th) {
				continue
			}
			o.loc.CompareAndSwap(loc, &tent.selfLoc)
		case StatusAborted:
			// Re-publishing the base's own locator is a benign ABA: same
			// head, no writer. Only a committed writer's version is ever
			// trimmed, so prev is set.
			o.loc.CompareAndSwap(loc, &loc.ver.prev.Load().selfLoc)
		default:
			return loc
		}
	}
}

// trim cuts the version chain after maxVersions entries (at least 1, the
// head itself). It unlinks by CAS, so of the settlers racing to trim one
// history exactly one cuts each version, and that one hands it to th.cut,
// which retires it if th wrote it and passes it to its writer's inbox
// otherwise. The cut version is left as it is: a pinned reader may still be
// walking through it. trim reports false when th
// had to pin before looking into another thread's version: the caller loads
// the locator again.
func trim(head *version, maxVersions int, th *Thread) bool {
	v := head
	for i := 1; i < maxVersions; i++ {
		next := v.prev.Load()
		if next == nil {
			return true
		}
		if th.protect(next.owner) {
			return false
		}
		v = next
	}
	if next := v.prev.Load(); next != nil && v.prev.CompareAndSwap(next, nil) {
		th.cut(next)
	}
	return true
}

// upperBound returns ⌈v.R⌉ as stored: the successor's CT minus one if the
// version has been superseded, ∞ otherwise.
func (v *version) upperBound() timebase.Timestamp {
	if w := v.until.Load(); w != 0 {
		return timebase.FromWord(w).Pred()
	}
	return timebase.Inf
}

// prelimUB computes a conservative estimate of ⌈v.R⌉ according to the
// calling thread's time reference (getPrelimUB, Algorithm 3 lines 19–35).
// v is a committed version the caller read.
//
//   - A superseded version's bound is exact and final.
//   - If the object is owned by a writer that has entered the commit phase
//     and fixed its commit time, the current version cannot remain valid
//     past that commit: the bound is CT−1 — except under asTx's own write,
//     where it is deliberately overestimated to CT so the commit-time
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
//
// A declared read-only read with a finite upper bound skips this function
// for a writer-free head that starts inside its snapshot (Tx.ReadValue). A
// writer-free locator loaded after the upper bound was fixed proves v was
// current at a real time after it: called at that load, this function would
// return its t — the upper bound itself — and Min would leave the bound as
// it is. v's validFrom is stamped before a writer-free locator publishes it
// and its value is immutable, so that one load decides the read; the until
// load and the locator reload below close a window the fast path never
// opens.
//
// th is the calling thread, as for settled: a helper passes its own, not the
// owner of asTx.
func prelimUB(o *Object, v *version, t timebase.Timestamp, asTx *Tx, th *Thread) timebase.Timestamp {
	if ub := v.upperBound(); !ub.IsInf() {
		return ub
	}
	loc := o.loc.Load()
	for loc.writer != nil && th.protect(loc.writer.th) {
		loc = o.loc.Load()
	}
	if loc.head() != v {
		// v was superseded between the two loads — and a later writer may
		// already own the object, whose CT says nothing about v. settled
		// stamps the bound before it trims or publishes the new head, so it
		// is there now.
		return v.upperBound()
	}
	if w := loc.writer; w != nil {
		st := w.Status()
		if st == StatusCommitting || st == StatusCommitted {
			if st == StatusCommitting {
				ensureCT(w, th.clock)
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
