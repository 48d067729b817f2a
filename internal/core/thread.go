package core

import (
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/timebase"
)

// Thread is one worker's execution context: its clock handle, its
// statistics, and the retry loop driving transaction attempts. A Thread
// must be used by a single goroutine.
type Thread struct {
	rt    *Runtime
	id    int
	clock timebase.Clock
	// index is the reusable object→entry map lent to transactions whose
	// access set outgrows the linear-scan fast path. Lazily allocated.
	index map[*Object]int
	// writeHint sizes the thread's version chunks and an attempt's locator
	// chunk, entryHint the slice an access set grows into, from what this
	// thread's recent commits through Run used (see sizeHint).
	writeHint int
	entryHint int
	// roTx is the one record this thread's declared read-only attempts run
	// in (see newTx); nil while a RunReadOnly has it out.
	roTx *Tx
	// pending holds the thread's last pendingLen finished update attempts,
	// oldest at pendingAt, before retire checks them (see retire).
	pending   [pendingLen]*Tx
	pendingAt int
	// recs holds the update records this thread has retired (see retire),
	// vers the versions it wrote that a trim cut off a history or that its
	// aborted attempts published (see cut and drain), until newTx and
	// newWrite reuse them.
	recs limbo[Tx]
	vers limbo[version]
	// now is the epoch when the thread's outermost update attempt started:
	// the lists free what was retired epochGrace epochs before it (see
	// newTx). depth counts the transactions the thread is running, nested
	// ones included.
	now   uint64
	depth int
	// drained is the inbox's pushed count at the thread's last drain.
	drained uint64
	// chunk is what the thread's new versions are cut from when vers has no
	// free one, sized by writeHint so that a thread that has not yet retired
	// enough versions allocates one chunk per attempt. Published versions
	// never move, so a full chunk is left behind and a new one started; what
	// an attempt leaves unused is cut by the next one.
	chunk []version
	// Counters only tests read. cuts counts the versions the thread's trims
	// unlinked; handed, those of another thread's it pushed to the owner's
	// inbox. retired counts the versions it put on vers after a cut: its own
	// and those drained from its inbox. dropped counts the versions it left
	// to the collector after a cut: an owner's inbox slot was full, or vers
	// was at versionCap. chunks counts the chunks newVersion allocated.
	cuts, handed, retired, dropped, chunks int

	stats abort.Stats
	_     [64]byte // keep each worker's stats off its neighbours' cache lines
	// pin is the epoch the thread pinned in its current attempt, 0 while it
	// holds no other thread's record (see protect); other threads read it
	// in Runtime.advance. next links the runtime's thread list and is never
	// written once published.
	pin  atomic.Uint64
	next *Thread
	_    [48]byte
	// inbox holds the thread's versions that other threads' trims cut, until
	// drain; cutters write it, so it has cache lines of its own.
	inbox inbox
	_     [56]byte
}

// inbox is where other threads hand a thread the versions of its that their
// trims cut (see Thread.cut). A cutter claims slot pushed mod inboxLen with
// one Add and fills it by CAS from nil; if the slot is still full, the
// version goes to the collector. Only the owner empties slots (drain).
type inbox struct {
	pushed atomic.Uint64
	slots  [inboxLen]atomic.Pointer[version]
}

// inboxLen is the number of inbox slots. On mem_bank (two threads
// transferring beside read-only audits, 2 CPUs) 64 slots allocate about as
// much as 16: what a full slot no longer drops is dropped at versionCap
// instead, while a pinned reader holds the epoch up. 4 slots allocate more.
const inboxLen = 16

// push hands v to the inbox's owner, and reports false if the slot it
// claimed was still full.
func (in *inbox) push(v *version) bool {
	return in.slots[(in.pushed.Add(1)-1)%inboxLen].CompareAndSwap(nil, v)
}

// pendingLen is how many later update attempts a finished one waits for
// before its owner checks that no locator names it any more (see retire).
//
// limboCap bounds the records a thread keeps; past it a retired record is
// left to the collector. The spares carry the thread through a stretch in
// which the epoch cannot advance, because a pinned thread was descheduled
// in mid-attempt. advanceAt is how many records a thread
// retires in one epoch before it moves the epoch on itself: the epoch then
// advances every few attempts, not on every one. The same constants bound
// the thread's versions (see versionCap).
const (
	pendingLen = 2
	limboCap   = 64
	advanceAt  = 8
)

// limbo holds what a thread has finished with and may reuse: its update
// records, or the versions it wrote. Retired items wait in a FIFO ring,
// tagged with the epoch each was retired in, until their grace period is
// over; take pops the oldest. An item that was never published
// goes on a stack and is free at once. A full ring grows to the limit the
// caller passes, so a steady workload recycles without allocating.
type limbo[T any] struct {
	ring  []*T // the FIFO; its length is its capacity
	tags  []uint64
	first int // index of the oldest retired item
	n     int // retired items
	free  []*T
}

// put retires x with tag, unless the list already holds limit items: then x
// is left to the collector, and put reports false. An item tagged 0 was
// never published and is free at once.
func (l *limbo[T]) put(x *T, tag uint64, limit int) bool {
	switch {
	case l.n+len(l.free) >= limit:
		return false
	case tag == 0:
		l.free = append(l.free, x)
	default:
		if l.n == len(l.ring) {
			ring, tags := make([]*T, limit), make([]uint64, limit)
			k := copy(ring, l.ring[l.first:])
			copy(ring[k:], l.ring[:l.first])
			k = copy(tags, l.tags[l.first:])
			copy(tags[k:], l.tags[:l.first])
			l.ring, l.tags, l.first = ring, tags, 0
		}
		i := l.at(l.n)
		l.ring[i], l.tags[i] = x, tag
		l.n++
	}
	return true
}

// at returns the ring index of the i-th oldest retired item.
func (l *limbo[T]) at(i int) int {
	if i += l.first; i >= len(l.ring) {
		i -= len(l.ring)
	}
	return i
}

// crowded reports whether the newest advanceAt retired items were all
// retired in epoch now.
func (l *limbo[T]) crowded(now uint64) bool {
	return l.n >= advanceAt && l.tags[l.at(l.n-advanceAt)] == now
}

// take returns a free item, or else the oldest retired one if its grace
// period was over by epoch now, or nil.
func (l *limbo[T]) take(now uint64) *T {
	if n := len(l.free) - 1; n >= 0 {
		x := l.free[n]
		l.free[n], l.free = nil, l.free[:n]
		return x
	}
	if l.n == 0 || l.tags[l.first]+epochGrace > now {
		return nil
	}
	x := l.ring[l.first]
	l.ring[l.first] = nil
	l.first = l.at(1)
	l.n--
	return x
}

// versionCap bounds the versions th keeps. It holds what th retires in
// epochGrace+1 epochs: when th is the one that advances the epoch, that is
// every advanceAt attempts, and an attempt retires about as many versions
// as it writes.
func (th *Thread) versionCap() int {
	return advanceAt * (epochGrace + 1) * max(th.writeHint, 1)
}

// sizeHint moves a chunk-size hint toward what a commit just used: up at
// once, down by a quarter of the gap. A steady workload gets exactly one
// right-sized chunk per attempt; one odd transaction neither under-sizes the
// next chunk nor leaves every later small commit pinning an oversized one.
func sizeHint(hint, used int) int {
	if used >= hint {
		return used
	}
	return hint - (hint-used+3)/4
}

// ID returns the worker id the thread was created with.
func (th *Thread) ID() int { return th.id }

// Clock exposes the thread's clock handle (useful for workloads that want
// timestamps consistent with the STM's time base).
func (th *Thread) Clock() timebase.Clock { return th.clock }

// Stats returns this thread's counters. Read them only while the thread
// runs no transaction.
func (th *Thread) Stats() *abort.Stats { return &th.stats }

// Run executes fn as an update-capable transaction, retrying on aborts
// until it commits. fn may be invoked many times and must confine its side
// effects to transactional reads and writes. A non-ErrAborted error from fn
// aborts the transaction and is returned unchanged. The *Tx runs in a
// record that a later attempt reuses: fn must not keep it past its return.
func (th *Thread) Run(fn func(*Tx) error) error {
	return th.run(false, fn)
}

// RunReadOnly executes fn as a declared read-only transaction: writes are
// rejected, and reads may be served from older object versions, which lets
// the transaction commit without any validation (§2.2: a read-only
// transaction can commit iff it has used a consistent snapshot). The *Tx is
// the thread's reused read-only record: fn must not keep it past its return.
func (th *Thread) RunReadOnly(fn func(*Tx) error) error {
	return th.run(true, fn)
}

func (th *Thread) run(readOnly bool, fn func(*Tx) error) error {
	// A transaction nested in an attempt on this thread that is pinned
	// leaves the pin to that attempt; otherwise every attempt ends unpinned.
	held := th.pin.Load() != 0
	th.depth++
	defer th.leave(held)
	for attempt := 0; ; attempt++ {
		tx := th.newTx(readOnly)
		err := fn(tx)
		switch {
		case err == nil:
			if err = tx.commit(); err == nil {
				th.finish(tx)
				th.stats.Commits++
				if tx.writes > 0 {
					th.writeHint = sizeHint(th.writeHint, tx.writes)
				}
				if !readOnly {
					th.entryHint = sizeHint(th.entryHint, len(tx.entries))
				}
				if tx.boxed {
					th.stats.BoxedCommits++
				}
				return nil
			}
		case err != ErrAborted:
			// Application-level failure: roll back and propagate.
			tx.abort()
			th.finish(tx)
			th.stats.UserAborts++
			return err
		default:
			tx.abort() // release any owned objects before retrying
		}
		th.finish(tx)
		if !held {
			th.unpin()
		}
		th.stats.Aborts++
		r := abort.Contention // CauseNone: another thread aborted it
		switch tx.cause {
		case CauseNone:
			th.stats.AbortExternal++
		case CauseSnapshot:
			r = abort.Snapshot
			th.stats.AbortSnapshot++
		case CauseValidation:
			r = abort.Validation
			th.stats.AbortValidation++
		}
		abort.Pause(attempt, r)
	}
}

// newTx starts an attempt. An update attempt runs in a record whose inline
// arrays, or the ones a reused record kept from its last attempt, hold its
// entries and locators; once the thread has retired enough records it
// allocates none (see retire). An outermost update attempt also drains the
// thread's inbox and fixes which of the thread's retired records and
// versions it and its nested attempts may reuse: those whose grace period
// is over now. Nowhere else: an attempt reads the thread's own versions
// unpinned, so one it read and then cut itself (in a settle of its own or
// of a nested transaction's) must not come back as a tentative version
// before the attempt is over, however far the epoch has moved.
// A declared read-only attempt is never published: it keeps no access set,
// enters no locator, and is never helped or aborted as an enemy, so no other
// thread can hold a pointer to it. Those attempts reuse one record per
// Thread, reset field by field; the fields not reset are ones a read-only
// attempt never writes.
func (th *Thread) newTx(readOnly bool) *Tx {
	if !readOnly && th.depth == 1 {
		th.now = th.drain()
	}
	var tx *Tx
	switch {
	case readOnly && th.roTx != nil:
		tx, th.roTx = th.roTx, nil
		tx.closed, tx.pinned, tx.cause = false, false, CauseNone
		tx.status.Store(int32(StatusActive))
	case readOnly:
		tx = &Tx{th: th, rt: th.rt, readOnly: true} // no access set, no locators
	default:
		if tx = th.recs.take(th.now); tx == nil {
			tx = new(Tx)
		}
		tx.ready(th)
	}
	tx.begin()
	return tx
}

// ready prepares an update record of th for a new attempt. A fresh record
// gets its owner and the writer of each inline locator, for good, and starts
// on its inline arrays. A reused one is reset field by field and starts on
// the entry slice and locator chunk its last attempt ended in, which may have
// outgrown the inline arrays: it clears every entry and locator version that
// attempt left in them and in the inline locators (addEntry clears an entry
// array it leaves), so that it keeps no old version reachable, but not the
// writers, which a thread that loaded one of its locators may still read
// (see locator).
func (tx *Tx) ready(th *Thread) {
	if tx.th == nil {
		tx.th, tx.rt = th, th.rt
		for i := range tx.inlineLocs {
			tx.inlineLocs[i].writer = tx
		}
		tx.entries, tx.locs = tx.inlineEntries[:0], tx.inlineLocs[:0]
		return
	}
	clear(tx.entries)
	for i := range tx.locs {
		tx.locs[i].ver = nil
	}
	if tx.writes > len(tx.locs) {
		// The attempt overflowed, maybe out of the inline locators.
		for i := range tx.inlineLocs {
			tx.inlineLocs[i].ver = nil
		}
	}
	tx.entries, tx.locs = tx.entries[:0], tx.locs[:0]
	tx.index, tx.writes = nil, 0
	tx.update, tx.boxed, tx.closed, tx.cause = false, false, false, CauseNone
	tx.ct.Store(0)
	tx.status.Store(int32(StatusActive))
}

// protect makes it safe for th to look into a record or a version of
// owner's that it found through a locator or prev link it just loaded, and
// reports whether th must load that locator or link again first. th's own
// records and versions are not reused while th runs a transaction, and a
// genesis version (owner nil) never is. For another thread's, th pins the
// current epoch unless it is pinned already: what th finds after that is
// not reused before th unpins, but what it found before may already serve
// a new attempt. An attempt that never meets another thread's writer or
// version never pins, and so never holds up reuse. A nil th protects
// nothing. A pinned thread looks no further.
func (th *Thread) protect(owner *Thread) bool {
	if th == nil || th.pin.Load() != 0 || owner == nil || owner == th {
		return false
	}
	th.pin.Store(th.rt.epoch.Load())
	return true
}

// cut takes a version that a trim by th unlinked from a history: th retires
// it, tagged with the current epoch, if th wrote it, and hands another
// thread's to that thread's inbox, which drain empties. A genesis version,
// and one whose inbox slot is still full, are left to the collector.
func (th *Thread) cut(v *version) {
	if th == nil {
		return
	}
	th.cuts++
	switch o := v.owner; {
	case o == th:
		th.keep(v, th.rt.epoch.Load())
	case o == nil:
	case o.inbox.push(v):
		th.handed++
	default:
		th.dropped++
	}
}

// keep retires a version th wrote and a trim cut, tagged with tag, and
// counts whether vers had room for it.
func (th *Thread) keep(v *version, tag uint64) {
	if th.vers.put(v, tag, th.versionCap()) {
		th.retired++
	} else {
		th.dropped++
	}
}

// drain retires the versions other threads pushed to th's inbox since its
// last drain and returns the epoch it tags them with, loaded after it took
// them: each cut came before its push, so no reader that found a version
// before its cut pinned later than the tag (see # Memory in the package
// doc). A slot claimed but not yet filled when th looked is drained once
// the count passes it again.
func (th *Thread) drain() uint64 {
	n := th.inbox.pushed.Load()
	if n == th.drained {
		return th.rt.epoch.Load()
	}
	var got [inboxLen]*version
	k := 0
	for i := n - min(n-th.drained, inboxLen); i < n; i++ {
		s := &th.inbox.slots[i%inboxLen]
		if v := s.Load(); v != nil {
			s.Store(nil) // only the owner empties a slot
			got[k] = v
			k++
		}
	}
	th.drained = n
	now := th.rt.epoch.Load()
	for _, v := range got[:k] {
		th.keep(v, now)
	}
	return now
}

// newVersion returns a version of th's for a tentative write: a freed one,
// or else the next one cut from th's chunk (a new chunk of size if it is
// full). A reused version gets its stamps cleared here; the caller sets
// value and prev. Nothing was cleared when it was retired: a pinned reader
// may have read it until its grace period was over.
func (th *Thread) newVersion(size int) *version {
	if v := th.vers.take(th.now); v != nil {
		v.content = content{}
		v.until.Store(0)
		return v
	}
	if len(th.chunk) == cap(th.chunk) {
		th.chunks++
	}
	v := cut(&th.chunk, size)
	v.owner, v.selfLoc.ver = th, v
	return v
}

// leave ends a transaction started with the thread's pin held or not.
func (th *Thread) leave(held bool) {
	th.depth--
	if !held {
		th.unpin()
	}
}

// unpin ends the thread's pin, if it has one.
func (th *Thread) unpin() {
	if th.pin.Load() != 0 {
		th.pin.Store(0)
	}
}

// finish hands back the record of an attempt that reached a terminal state:
// a read-only one to the thread (a transaction nested in fn found roTx nil
// and made its own), an update one to retire.
func (th *Thread) finish(tx *Tx) {
	if tx.readOnly {
		th.roTx = tx
	} else {
		th.retire(tx)
	}
}

// retire puts a finished update record on the thread's list, tagged with the
// epoch it is retired in. Before that, no locator may name the record: one
// that never published a locator was reachable from this thread only and is
// free at once. One that did waits in pending for pendingLen later update
// attempts — by then the next access to an object it wrote may have settled
// it, as it would without reuse — and then its owner settles every object
// that still names it; once an object's locator has moved on, it never
// names the record again. Settling at once instead made the fastest
// disjoint 10-write transactions about a fifth slower (2-CPU host), and
// waiting longer leaves concurrent read-only scans more writers to settle.
// A thread that found one of its locators before that was pinned when it
// looked into the record (see protect), so the record waits epochGrace
// epochs after its tag before newTx reuses it. The tentative versions of an
// aborted record are unreachable from every object once it is settled, and
// retire with the same tag; a committed record's versions live on in the
// histories until a trim cuts them.
func (th *Thread) retire(tx *Tx) {
	tag := uint64(0)
	if tx.update {
		tx, th.pending[th.pendingAt] = th.pending[th.pendingAt], tx
		th.pendingAt = (th.pendingAt + 1) % pendingLen
		if tx == nil {
			return
		}
		for i := range tx.entries {
			if e := &tx.entries[i]; e.tent != nil && e.obj.loc.Load().writer == tx {
				e.obj.settle(th.rt.maxVersions, th)
			}
		}
		tag = th.rt.epoch.Load()
		if tx.Status() == StatusAborted {
			for i := range tx.entries {
				if t := tx.entries[i].tent; t != nil {
					th.vers.put(t, tag, th.versionCap())
				}
			}
		}
	}
	th.recs.put(tx, tag, limboCap)
	if th.recs.crowded(tag) {
		th.rt.advance(tag)
	}
}

// help completes another transaction's two-phase commit with this thread's
// clock (Algorithm 3 line 13).
func (th *Thread) help(w *Tx) {
	th.stats.Helps++
	w.finishCommit(th)
}
