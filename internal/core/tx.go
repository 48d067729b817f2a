package core

import (
	"runtime"
	"sync/atomic"

	"repro/internal/timebase"
	"repro/internal/val"
)

// Tx is one attempt of a transaction executing the Real-Time Lazy Snapshot
// Algorithm (LSA-RT, Algorithm 2). A Tx is bound to the Thread that created
// it and must only be used from that thread's goroutine; other threads
// interact with it exclusively through its atomic status, commit time, and —
// once it has left the active state — its frozen access set.
//
// The transaction incrementally constructs a consistent snapshot: the
// validity range [lower, upper] is the intersection of the validity ranges
// of all object versions accessed so far, and every access re-checks that
// the intersection is non-empty. Reads are invisible; writes register the
// transaction in the object's locator.
type Tx struct {
	th *Thread
	rt *Runtime

	// lower, upper are the current bounds of T.R; lower starts at the begin
	// time (the transaction cannot execute in the past). Owner-only.
	lower, upper timebase.Timestamp
	// entries is T.O, the set of accessed (object, version) pairs. Appended
	// only while active; frozen (and readable by helpers) once the status
	// CAS to committing is observed.
	entries []entry
	// index maps objects to their entry once the access set outgrows the
	// linear-scan fast path (see lookup). nil for small transactions; when
	// non-nil it is the Thread's reusable map. Owner-only; never examined
	// by helpers.
	index map[*Object]int
	// readOnly marks an attempt started with RunReadOnly. It sits with the
	// other flags so they pad to one word, not two (TestRecordSizes).
	readOnly bool
	// pinned records that a declared read-only attempt has made sure its
	// thread is pinned: a pin outlives every transaction nested in the
	// attempt, so its reads need not check again.
	pinned bool
	// update records whether the transaction wrote anything.
	update bool
	// boxed records whether any write took the escape hatch (a non-numeric
	// payload) — the per-commit boxing telemetry behind Stats.BoxedCommits.
	boxed bool
	// closed marks that extension is pointless: some version in the read
	// set has been superseded, so the upper bound can never grow again
	// (the paper's "closed" optimization, §2.2).
	closed bool
	// cause records why the owner aborted the transaction; external aborts
	// leave it CauseNone and are classified by the runner.
	cause AbortCause

	// status is the transaction state machine; all transitions are CAS.
	status atomic.Int32
	// ct is the Word of T.CT, the commit time; 0 while unset. CASed from 0
	// exactly once, by the owner or by any helper (Algorithm 2 line 42).
	ct atomic.Int64

	// writes counts write acquisitions. Their tentative versions are the
	// thread's (Thread.newVersion): versions outlive the Tx (a committed one
	// is promoted in place), which is why they are not embedded in it (see
	// version). Their writer locators are cut from locs: a fresh record's
	// inline array, then a chunk sized for the whole transaction, which the
	// record keeps for its next attempt (see ready). Writer locators die at
	// settle, so unlike versions they may live in (and point at) the
	// attempt's record.
	writes int
	locs   []locator

	// inlineEntries and inlineLocs are where a fresh record's entries and
	// locs start out, so that a small attempt's owner-side scratch is one
	// allocation. Helpers may validate the frozen entry array, and an object
	// may hold one of the record's locators, after the owner moved on, so a
	// finished record is reused only once no locator names it and after an
	// epoch grace period (see Thread.retire).
	inlineEntries [smallAccessSet]entry
	inlineLocs    [smallWriteSet]locator
}

// entry is one element of T.O: the object, the committed version the
// transaction read (nil for a blind write) and the tentative version it
// wrote (nil for a plain read). Extension and validation look only at ver;
// tent is protected by ownership from acquisition to commit.
type entry struct {
	obj  *Object
	ver  *version
	tent *version
}

// Status returns the transaction's current state.
func (tx *Tx) Status() Status { return Status(tx.status.Load()) }

// CT returns the commit time, or the zero timestamp if none has been fixed.
func (tx *Tx) CT() timebase.Timestamp {
	return timebase.FromWord(tx.ct.Load())
}

// begin initializes the attempt (Algorithm 2, Start).
func (tx *Tx) begin() {
	tx.lower = tx.th.clock.GetTime()
	tx.upper = timebase.Inf
}

// effLimit returns the timestamp passed as t into getPrelimUB: the current
// upper bound, clamped to "now" while it is still infinite. The clamp
// implements the §1.1 rule that accessing a most-recent version bounds the
// snapshot at the current time, not ∞ — without it, two sequential reads of
// head versions could miss a supersession in between.
func (tx *Tx) effLimit() timebase.Timestamp {
	if tx.upper.IsInf() {
		return tx.th.clock.GetTime()
	}
	return tx.upper
}

// errFromStatus translates a non-active status into the API error.
func (tx *Tx) errFromStatus() error {
	if tx.Status() == StatusAborted {
		return ErrAborted
	}
	return ErrNotActive
}

// abortSnapshot aborts the transaction from its own thread because its
// validity range became (possibly) empty, and returns the API error.
func (tx *Tx) abortSnapshot() error {
	tx.cause = CauseSnapshot
	tx.abort()
	return ErrAborted
}

// abort drives the transaction to the aborted state unless it has already
// committed (Algorithm 2 lines 53–59). Idempotent and callable by any
// thread.
func (tx *Tx) abort() {
	if !tx.status.CompareAndSwap(int32(StatusActive), int32(StatusAborted)) {
		tx.status.CompareAndSwap(int32(StatusCommitting), int32(StatusAborted))
	}
}

// abortExternal aborts an active enemy transaction that a writer has waited
// out. It only targets the active state: committing enemies are helped, not
// killed.
func (tx *Tx) abortExternal() bool {
	return tx.status.CompareAndSwap(int32(StatusActive), int32(StatusAborted))
}

// Read opens the object in read mode and returns the selected version's
// value as `any` — the generic escape-hatch view of ReadValue (numeric-lane
// payloads are boxed here; lane-aware callers use ReadValue or ReadInt).
func (tx *Tx) Read(o *Object) (any, error) {
	v, err := tx.ReadValue(o)
	if err != nil {
		return nil, err
	}
	return v.Load(), nil
}

// ReadInt opens the object in read mode through the unboxed numeric lane.
// ok reports whether the value currently lives in the lane; when false the
// caller falls back to Read. On error ReadValue returns the zero Value, a
// boxed payload, so n is 0 and ok false with no branch of its own — which
// keeps ReadInt within the inliner's budget.
func (tx *Tx) ReadInt(o *Object) (n int64, ok bool, err error) {
	v, err := tx.ReadValue(o)
	n, ok = v.AsInt64()
	return
}

// ReadValue opens the object in read mode (Algorithm 2, Open with m = read)
// and returns the value of the version selected into the snapshot.
func (tx *Tx) ReadValue(o *Object) (val.Value, error) {
	if tx.Status() != StatusActive {
		return val.Value{}, tx.errFromStatus()
	}
	// A declared read-only transaction keeps no access set: it never extends
	// and commits without validation, so nothing would read the log. Every
	// read — a repeated one too — is selected and range-checked like a first
	// read, which is all opacity needs: a second read of an object either
	// finds the same version (any newer one starts after the snapshot ends)
	// or empties the range.
	var v *version
	if tx.readOnly {
		// Once the upper bound is finite, a writer-free head that starts
		// inside the snapshot is decided from this one locator load: the
		// head was current after the upper bound was fixed, so prelimUB
		// would bound it by exactly tx.upper (see prelimUB). A head that
		// starts no later than the lower bound moves neither bound and is
		// returned here; one that starts inside the snapshot skips only the
		// selection. Anything else — an owned or unsettled locator, a head
		// newer than the snapshot — takes the general path below.
		if !tx.upper.IsInf() {
			// Another thread's head is looked into only pinned
			// (Thread.protect); once pinned, the scan tests just its flag.
			loc := o.loc.Load()
			if loc.writer == nil && !tx.pinned {
				if owner := loc.ver.owner; owner != nil && owner != tx.th {
					if tx.th.protect(owner) {
						loc = o.loc.Load()
					}
					tx.pinned = true
				}
			}
			if loc.writer == nil {
				from := loc.ver.validFrom()
				if tx.rt.ord.LaterEq(tx.lower, from) {
					return loc.ver.value, nil
				}
				if tx.rt.ord.LaterEq(tx.upper, from) {
					v = loc.ver
				}
			}
		}
	} else if idx, ok := tx.lookup(o); ok {
		e := &tx.entries[idx]
		if e.tent != nil {
			return e.tent.value, nil
		}
		return e.ver.value, nil
	}
	if v == nil {
		var ok bool
		if v, ok = tx.getVersion(o); !ok {
			return val.Value{}, tx.abortSnapshot()
		}
		tx.upper = tx.rt.ord.Min(tx.upper, prelimUB(o, v, tx.effLimit(), tx, tx.th))
	}
	// Lines 28–30: intersect T.R with the version's validity range and
	// abort if the snapshot became (possibly) inconsistent.
	tx.lower = tx.rt.ord.Max(tx.lower, v.validFrom())
	if tx.rt.ord.PossiblyLater(tx.lower, tx.upper) {
		return val.Value{}, tx.abortSnapshot()
	}
	if !tx.readOnly {
		tx.addEntry(o, v, nil)
	}
	return v.value, nil
}

// Write opens the object in write mode and installs v as the tentative new
// value — the generic escape-hatch view of WriteValue (dynamic int/int64
// payloads are canonicalized back into the numeric lane).
func (tx *Tx) Write(o *Object, v any) error {
	return tx.WriteValue(o, val.OfAny(v))
}

// WriteInt opens the object in write mode through the unboxed numeric lane:
// no part of the write boxes. Lane values have canonical dynamic type int.
func (tx *Tx) WriteInt(o *Object, n int64) error {
	return tx.WriteValue(o, val.OfInt(int(n)))
}

// WriteValue opens the object in write mode (Algorithm 2, Open with m =
// write) and installs v as the transaction's tentative new value.
func (tx *Tx) WriteValue(o *Object, v val.Value) error {
	if tx.Status() != StatusActive {
		return tx.errFromStatus()
	}
	if tx.readOnly {
		return ErrReadOnly
	}
	if v.Kind() == val.KindBoxed {
		tx.boxed = true
	}
	idx, seen := tx.lookup(o)
	if seen && tx.entries[idx].tent != nil {
		// Already own the object: update the tentative version in place.
		tx.entries[idx].tent.value = v
		return nil
	}
	// Acquisition loop (lines 11–21): become the object's registered writer,
	// helping a committing owner to completion and giving an active one
	// three yielding rounds to finish before aborting it (§2.3's contention
	// manager, as one fixed policy). The tentative version and its locator
	// are taken once and reused across CAS failures — until the CAS succeeds
	// they are invisible to every other thread, so a version that never got
	// published goes back to the thread's free ones at once.
	var tent *version
	var nloc *locator
	for n := 0; ; n++ {
		if tx.Status() != StatusActive {
			if tent != nil {
				tx.th.vers.put(tent, 0, tx.th.versionCap())
			}
			return tx.errFromStatus()
		}
		loc := o.settled(tx.rt.maxVersions, tx.th)
		if w := loc.writer; w != nil {
			switch w.Status() {
			case StatusCommitting:
				tx.th.help(w)
			case StatusActive:
				// Protocol, not retry policy: abort.Pause runs after aborts.
				if n < 3 {
					runtime.Gosched()
				} else if w.abortExternal() {
					tx.th.stats.EnemyAborts++
				}
			default:
				// Terminal writer: the next settled() call resolves it.
			}
			continue
		}
		base := loc.ver
		if tx.th.protect(base.owner) {
			continue
		}
		if tent == nil {
			tent, nloc = tx.newWrite()
			tent.value = v
			nloc.ver = tent
		}
		tent.prev.Store(base)
		if !o.loc.CompareAndSwap(loc, nloc) {
			continue
		}
		// Log the acquisition before anything can abort the attempt: the
		// entry is how the owner finds the locator before it reuses the
		// record (Thread.retire).
		tx.update = true
		if seen {
			// Write upgrade: the entry keeps the version the transaction
			// read, so commit-time validation still checks it.
			tx.entries[idx].tent = tent
		} else {
			tx.addEntry(o, nil, tent)
		}
		// Line 22: if the base version is possibly more recent than the
		// snapshot's upper bound, extending may still save the transaction.
		from := base.validFrom()
		if tx.rt.ord.PossiblyLater(from, tx.upper) {
			tx.extend()
		}
		// Lines 28–30. The tentative version's preliminary upper bound is
		// the caller's limit (we are the registered, still-active writer).
		tx.lower = tx.rt.ord.Max(tx.lower, from)
		tx.upper = tx.rt.ord.Min(tx.upper, tx.effLimit())
		if tx.rt.ord.PossiblyLater(tx.lower, tx.upper) {
			return tx.abortSnapshot()
		}
		return nil
	}
}

// smallAccessSet and smallWriteSet are the lengths of a record's inline
// entry and writer-locator arrays: most transactions in the paper's
// workloads touch a handful of objects, and a fresh record holds those
// without a separate backing array.
const (
	smallAccessSet = 8
	smallWriteSet  = 4
)

// wideSet is the access-set size up to which lookup scans the entries instead
// of maintaining a map: a backward linear scan over a contiguous, warm slice
// beats a map's hashing and its per-attempt clearing cost well past 8 (a
// 10-read-modify-write transaction: 2.7 → 2.35 µs).
const wideSet = 16

// lookup finds the entry for o. Access sets up to wideSet scan backwards;
// larger ones use the map built by addEntry. A miss returns index −1, so a
// caller that forgets to check ok faults loudly instead of silently aliasing
// entry 0.
func (tx *Tx) lookup(o *Object) (int, bool) {
	if tx.index != nil {
		if idx, ok := tx.index[o]; ok {
			return idx, true
		}
		return -1, false
	}
	for i := len(tx.entries) - 1; i >= 0; i-- {
		if tx.entries[i].obj == o {
			return i, true
		}
	}
	return -1, false
}

// cut returns the next element of *chunk, starting a new chunk of the given
// size when the current one is full. Elements already handed out are
// published by address, so a chunk is never reallocated — the old one stays
// wherever its elements are still referenced.
func cut[T any](chunk *[]T, size int) *T {
	c := *chunk
	if len(c) == cap(c) {
		c = make([]T, 0, size)
	}
	c = c[:len(c)+1]
	*chunk = c
	return &c[len(c)-1]
}

// newWrite hands out the tentative version and writer locator for one write
// acquisition: a version the thread freed, or one cut from its chunk (see
// Thread.newVersion), which covers what the Thread's hint still expects. A
// locator chunk (started once the record's locators are used up) covers the
// whole transaction at the hint, so a reused record that keeps it needs no
// other; both at least double what the attempt holds when the hint was too
// small.
func (tx *Tx) newWrite() (*version, *locator) {
	n, hint := tx.writes, tx.th.writeHint
	tx.writes++
	loc := cut(&tx.locs, max(hint, 2*n))
	if loc.writer == nil {
		loc.writer = tx // a chunk's; the inline ones have theirs
	}
	return tx.th.newVersion(max(hint-n, n, 1)), loc
}

// addEntry appends (o, read version, tentative version) to T.O and indexes
// it. An access set that outgrows its array moves to a slice sized by the
// Thread's hint, or twice as long, which the record keeps for its next
// attempt; the array it leaves is cleared, so that it points at nothing
// (entries are owner-only until the status CAS freezes them, so they may
// move; helpers only ever see the final slice). Crossing wideSet promotes
// the index to the Thread's reusable map.
func (tx *Tx) addEntry(o *Object, ver, tent *version) {
	if n := len(tx.entries); n == cap(tx.entries) {
		grown := make([]entry, n, max(2*n, tx.th.entryHint))
		copy(grown, tx.entries)
		clear(tx.entries)
		tx.entries = grown
	}
	tx.entries = append(tx.entries, entry{obj: o, ver: ver, tent: tent})
	if tx.index != nil {
		tx.index[o] = len(tx.entries) - 1
	} else if len(tx.entries) > wideSet {
		if tx.th.index == nil {
			tx.th.index = make(map[*Object]int, 2*wideSet)
		} else {
			clear(tx.th.index)
		}
		tx.index = tx.th.index
		for i := range tx.entries {
			tx.index[tx.entries[i].obj] = i
		}
	}
}

// getVersion selects the version of o to read (Algorithm 3, getVersion).
// Update transactions must read the most recent committed version (an older
// one could never be extended to the commit time), so they extend the
// snapshot if the head is too recent. Read-only transactions instead walk
// back to an older version overlapping their snapshot — this is what makes
// them abort-free under concurrent updates as long as history suffices.
//
// Every version it looks into is the thread's own, a genesis version, or one
// found after the thread pinned (see Thread.protect): meeting another
// thread's version unpinned, it pins and starts over.
func (tx *Tx) getVersion(o *Object) (*version, bool) {
retry:
	for {
		loc := o.settled(tx.rt.maxVersions, tx.th)
		if w := loc.writer; w != nil && w != tx && w.Status() == StatusCommitting {
			// Line 13: help the committing writer to completion so the
			// settled state (and its commit time) becomes definite.
			tx.th.help(w)
			continue
		}
		head := loc.head()
		if head == nil || tx.th.protect(head.owner) {
			// A stale writer locator, settled and trimmed under us; or
			// pinned just now to look into another thread's version.
			continue
		}
		from := head.validFrom()
		if tx.rt.ord.LaterEq(tx.upper, from) {
			return head, true
		}
		// Head is possibly more recent than the snapshot. Update
		// transactions must read the head (and so try to extend); read-only
		// transactions read at their snapshot from older versions.
		if !tx.readOnly {
			tx.extend()
			if tx.rt.ord.LaterEq(tx.upper, from) {
				return head, true
			}
			return nil, false
		}
		for v := head.prev.Load(); v != nil; v = v.prev.Load() {
			if tx.th.protect(v.owner) {
				continue retry
			}
			if !tx.rt.ord.LaterEq(v.upperBound(), tx.lower) {
				// This version ends before the snapshot starts; older ones
				// end even earlier.
				return nil, false
			}
			if tx.rt.ord.LaterEq(tx.upper, v.validFrom()) {
				return v, true
			}
		}
		return nil, false
	}
}

// extend tries to grow the snapshot's upper bound to the current time
// (Algorithm 3, Extend). It re-derives the bound of every read version; a
// superseded version closes the transaction (no future extension can help).
func (tx *Tx) extend() {
	if tx.closed {
		return
	}
	t := tx.th.clock.GetTime()
	upper := t
	for i := range tx.entries {
		e := &tx.entries[i]
		if e.ver == nil {
			continue
		}
		ub := prelimUB(e.obj, e.ver, t, tx, tx.th)
		upper = tx.rt.ord.Min(upper, ub)
		if e.ver.until.Load() != 0 {
			tx.closed = true
		}
	}
	tx.upper = upper
	tx.th.stats.Extensions++
}

// commit attempts to commit the transaction (Algorithm 2, Commit).
func (tx *Tx) commit() error {
	if !tx.update {
		// Read-only transactions built their snapshot incrementally and
		// consistently; no validation is necessary (line 37).
		if tx.status.CompareAndSwap(int32(StatusActive), int32(StatusCommitted)) {
			return nil
		}
		return ErrAborted
	}
	if !tx.status.CompareAndSwap(int32(StatusActive), int32(StatusCommitting)) {
		return ErrAborted
	}
	if tx.finishCommit(tx.th) {
		return nil
	}
	if tx.cause == CauseNone {
		tx.cause = CauseValidation
	}
	return ErrAborted
}

// finishCommit drives a committing transaction to a terminal state and
// reports whether it committed. It is invoked by the owner and by helping
// threads (th is the caller, whose clock is used) and is idempotent: every
// step is a CAS and validation reads only the frozen access set.
func (w *Tx) finishCommit(th *Thread) bool {
	ensureCT(w, th.clock)
	ct := w.CT()
	// Lines 43–48: the snapshot must extend to the commit time. Every
	// accessed version must still be (possibly) valid at ct; a version
	// superseded before ct kills the commit.
	for i := range w.entries {
		e := &w.entries[i]
		if e.ver == nil {
			continue
		}
		ub := prelimUB(e.obj, e.ver, ct, w, th)
		if w.rt.ord.PossiblyLater(ct, ub) {
			w.abort()
			return w.Status() == StatusCommitted
		}
	}
	w.status.CompareAndSwap(int32(StatusCommitting), int32(StatusCommitted))
	return w.Status() == StatusCommitted
}

// ensureCT fixes the transaction's commit time if it is still unset, using
// the calling thread's clock (Algorithm 2 lines 41–42; any thread may win
// the CAS). LSA-RT's §2.4 argument requires that no thread reasons about a
// committing transaction whose commit time could still land in the past —
// setting it here, before drawing conclusions, closes that window. An
// issued timestamp is never Zero, so its word is never the unset 0.
func ensureCT(w *Tx, clock timebase.Clock) {
	if w.ct.Load() == 0 {
		w.ct.CompareAndSwap(0, clock.GetNewTS().Word())
	}
}
