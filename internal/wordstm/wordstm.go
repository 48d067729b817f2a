// Package wordstm is a word-based variant of the time-based STM, in the
// style of TinySTM (the direct descendant of the paper's LSA line): a flat
// transactional memory of 64-bit words protected by a striped array of
// versioned locks, with lazy snapshot maintenance over the same pluggable
// time bases as the object-based engine.
//
// The paper notes (§1.1) that using time as the basis for transactional
// memory "does not impose a certain implementation in general: both
// object-based and word-based STMs ... can be used", requiring only that
// timing information is stored at each object. Here the timing information
// is the version timestamp in each stripe's lock word, and transactions
// maintain the validity range [lower, upper] exactly as LSA prescribes:
//
//   - a read whose stripe version is newer than the snapshot's upper bound
//     triggers an extension: re-read the clock, revalidate the read set,
//     and grow the snapshot (Algorithm 3, Extend);
//   - writes lock their stripe at encounter time (visible writes) and
//     buffer the new value (write-back);
//   - commit acquires a new timestamp, revalidates if time has progressed,
//     installs the write log, and releases the locks at the new version.
//
// Single version per word (word STMs keep no history), so read-only
// transactions validate like updaters. Only exact time bases (shared
// counters, perfectly synchronized clocks) are supported: a lock word holds
// a bare tick count. The deviation is the base's, not the timestamp's, and
// a clock ID fits in the low bits (timebase.Timestamp.Word), so the masked
// bases are a lock-word encoding away; until then the object-based engine
// serves externally synchronized clocks.
package wordstm

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/timebase"
)

// ErrAborted signals that the transaction attempt failed and was retried.
var ErrAborted = errors.New("wordstm: transaction aborted")

// ErrReadOnly is returned by Store inside a read-only transaction.
var ErrReadOnly = errors.New("wordstm: store inside read-only transaction")

// ErrOutOfRange is returned for addresses outside the allocated memory.
var ErrOutOfRange = errors.New("wordstm: address out of range")

// Reason-tagged abort instances (see internal/abort): one per abort-site
// class, allocated once. All satisfy errors.Is(err, ErrAborted).
var (
	// errAbortSnapshot: a validity-range extension failed, or a stripe
	// version stayed beyond the extended upper bound.
	errAbortSnapshot = &abort.Err{Sentinel: ErrAborted, Reason: abort.Snapshot,
		Msg: "wordstm: transaction aborted: validity-range extension failed"}
	// errAbortValidation: the commit-time revalidation failed.
	errAbortValidation = &abort.Err{Sentinel: ErrAborted, Reason: abort.Validation,
		Msg: "wordstm: transaction aborted: commit-time validation failed"}
	// errAbortContention: a bounded wait on a foreign stripe lock ran out
	// (read spin or the store-time suicide policy).
	errAbortContention = &abort.Err{Sentinel: ErrAborted, Reason: abort.Contention,
		Msg: "wordstm: transaction aborted: stripe lock held by another writer"}
)

// Addr is a word address in the STM's memory.
type Addr uint32

// STM is a word-based transactional memory instance.
type STM struct {
	tb    timebase.TimeBase
	mem   []atomic.Int64
	locks []atomic.Int64 // version<<1 (even) or owner-marker (odd)
	mask  uint32
}

// lockBit marks a stripe as owned by a committing/active writer.
const lockBit int64 = 1

// New creates a word STM with the given number of words over an exact time
// base. The number of lock stripes is the smallest power of two ≥ words/4,
// at least 64.
func New(tb timebase.TimeBase, words int) (*STM, error) {
	if words <= 0 {
		return nil, fmt.Errorf("wordstm: words must be positive, got %d", words)
	}
	if tb.Deviation() != 0 {
		return nil, fmt.Errorf("wordstm: time base %s is not exact; word-based lock tables hold bare tick counts (use the object-based engine)", tb.Name())
	}
	stripes := 64
	for stripes < words/4 {
		stripes <<= 1
	}
	return &STM{
		tb:    tb,
		mem:   make([]atomic.Int64, words),
		locks: make([]atomic.Int64, stripes),
		mask:  uint32(stripes - 1),
	}, nil
}

// Words returns the size of the transactional memory.
func (s *STM) Words() int { return len(s.mem) }

// TimeBase returns the time base.
func (s *STM) TimeBase() timebase.TimeBase { return s.tb }

// stripe maps an address to its lock index.
func (s *STM) stripe(a Addr) uint32 { return (uint32(a) * 2654435761) & s.mask }

// SetInitial stores an initial value outside any transaction. Only safe
// before concurrent transactions start.
func (s *STM) SetInitial(a Addr, v int64) error {
	if int(a) >= len(s.mem) {
		return ErrOutOfRange
	}
	s.mem[a].Store(v)
	return nil
}

// Thread creates a worker context bound to the time base's clock for id.
type Thread struct {
	stm   *STM
	clock timebase.Clock
	stats abort.Stats
	// tx is the attempt record, reset and reused attempt after attempt;
	// running marks it taken (see run).
	tx      Tx
	running bool
}

// Stats returns this thread's counters, which its retry loop keeps. Read
// them only while the thread runs no transaction.
func (t *Thread) Stats() *abort.Stats { return &t.stats }

// Thread creates a worker context. Not safe for concurrent use.
func (s *STM) Thread(id int) *Thread {
	t := &Thread{stm: s, clock: s.tb.Clock(id)}
	t.tx.stm, t.tx.clock = s, t.clock
	return t
}

// smallWriteSet is the write-set size up to which wlookup scans the writes
// slice instead of maintaining a map — the same ≤8-entry linear-scan fast
// path as the LSA core's access set and the norec and tl2 write sets.
const smallWriteSet = 8

// Tx is one word-transaction attempt. Attempts are recycled across retries
// by their Thread: the Tx is thread-private (there is no helping — other
// transactions see only the lock words), so the logs and the promoted index
// are reused attempt after attempt and the steady-state retry costs zero
// allocations.
type Tx struct {
	stm      *STM
	clock    timebase.Clock
	readOnly bool
	// lower/upper are the LSA validity-range bounds, in exact ticks.
	lower, upper int64
	reads        []readEntry
	writes       []writeEntry
	windex       map[Addr]int // nil while the write set is small
	// spareIndex keeps the promoted map alive between attempts so a large
	// write set pays the map allocation once per thread, not per attempt.
	spareIndex map[Addr]int
	locked     []uint32 // stripes this tx owns, in acquisition order
}

// reset rearms the attempt for reuse, keeping the logs' backing arrays.
// locked is already empty: every way out of an attempt releases the locks.
func (tx *Tx) reset(start int64, readOnly bool) {
	tx.readOnly = readOnly
	tx.lower, tx.upper = start, start
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.windex = nil
}

// wlookup finds the write-set entry for a: a linear scan while the set is
// small, the map built by wadd beyond that. A miss returns index −1 (0 is a
// valid entry index).
func (tx *Tx) wlookup(a Addr) (int, bool) {
	if tx.windex != nil {
		if idx, ok := tx.windex[a]; ok {
			return idx, true
		}
		return -1, false
	}
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].addr == a {
			return i, true
		}
	}
	return -1, false
}

// wadd appends a write-set entry; crossing smallWriteSet promotes the index
// to the attempt's reusable map (cleared, not reallocated, after the first
// promotion on this thread).
func (tx *Tx) wadd(a Addr, v int64) {
	tx.writes = append(tx.writes, writeEntry{addr: a, val: v})
	if tx.windex != nil {
		tx.windex[a] = len(tx.writes) - 1
	} else if len(tx.writes) > smallWriteSet {
		if tx.spareIndex == nil {
			tx.spareIndex = make(map[Addr]int, 4*smallWriteSet)
		} else {
			clear(tx.spareIndex)
		}
		tx.windex = tx.spareIndex
		for i := range tx.writes {
			tx.windex[tx.writes[i].addr] = i
		}
	}
}

type readEntry struct {
	stripe  uint32
	version int64
}

type writeEntry struct {
	addr Addr
	val  int64
}

// Load reads a word into the snapshot.
func (tx *Tx) Load(a Addr) (int64, error) {
	if int(a) >= len(tx.stm.mem) {
		return 0, ErrOutOfRange
	}
	if idx, ok := tx.wlookup(a); ok {
		return tx.writes[idx].val, nil
	}
	st := tx.stm.stripe(a)
	for n := 0; ; n++ {
		l1 := tx.stm.locks[st].Load()
		if l1&lockBit != 0 {
			if tx.ownsStripe(st) {
				// Locked by us for a different address in the same stripe:
				// memory still holds the committed value.
				return tx.stm.mem[a].Load(), nil
			}
			// Owned by a writer, very possibly one that is preempted
			// mid-commit (likely on few cores): yield briefly so it can
			// finish rather than throwing away the whole snapshot.
			// Protocol, not retry policy: it only borrows Pause's schedule.
			if n > 32 {
				return 0, errAbortContention
			}
			abort.Pause(n, abort.Contention)
			continue
		}
		v := tx.stm.mem[a].Load()
		if tx.stm.locks[st].Load() != l1 {
			continue // raced with a commit: re-read
		}
		ver := l1 >> 1
		if ver > tx.upper {
			// The version is newer than the snapshot: try to extend
			// (Algorithm 3, Extend) and re-check.
			if !tx.extend() {
				return 0, errAbortSnapshot
			}
			if ver > tx.upper {
				return 0, errAbortSnapshot
			}
			// extend validated only tx.reads, which this word is not in
			// yet: a commit to its stripe since the sandwich above would
			// leave v stale under an upper that now covers the newer value.
			if tx.stm.locks[st].Load() != l1 {
				continue
			}
		}
		if ver > tx.lower {
			tx.lower = ver
		}
		tx.reads = append(tx.reads, readEntry{stripe: st, version: ver})
		return v, nil
	}
}

// Store buffers a write and locks the word's stripe at encounter time.
func (tx *Tx) Store(a Addr, v int64) error {
	if tx.readOnly {
		return ErrReadOnly
	}
	if int(a) >= len(tx.stm.mem) {
		return ErrOutOfRange
	}
	if idx, ok := tx.wlookup(a); ok {
		tx.writes[idx].val = v
		return nil
	}
	st := tx.stm.stripe(a)
	if !tx.ownsStripe(st) {
		for n := 0; ; n++ {
			l := tx.stm.locks[st].Load()
			if l&lockBit != 0 {
				// Owned by another transaction: back off briefly, then
				// surrender (suicide policy: the holder is never aborted).
				// Protocol, not retry policy: it only borrows Pause's schedule.
				if n > 8 {
					return errAbortContention
				}
				abort.Pause(n, abort.Contention)
				continue
			}
			ver := l >> 1
			if ver > tx.upper {
				if !tx.extend() || ver > tx.upper {
					return errAbortSnapshot
				}
			}
			if tx.stm.locks[st].CompareAndSwap(l, l|lockBit) {
				if ver > tx.lower {
					tx.lower = ver
				}
				tx.locked = append(tx.locked, st)
				break
			}
		}
	}
	tx.wadd(a, v)
	return nil
}

func (tx *Tx) ownsStripe(st uint32) bool {
	for _, s := range tx.locked {
		if s == st {
			return true
		}
	}
	return false
}

// extend grows the snapshot's upper bound to the current time after
// revalidating every read stripe (Algorithm 3, Extend).
func (tx *Tx) extend() bool {
	now := tx.clock.GetTime().TS
	if !tx.validate() {
		return false
	}
	tx.upper = now
	return true
}

// validate checks that every read stripe is unlocked (or ours) and
// unchanged since it was read.
func (tx *Tx) validate() bool {
	for _, r := range tx.reads {
		l := tx.stm.locks[r.stripe].Load()
		if l&lockBit != 0 {
			if !tx.ownsStripe(r.stripe) {
				return false
			}
			l &^= lockBit
		}
		if l>>1 != r.version {
			return false
		}
	}
	return true
}

// commit finishes the transaction: acquire the commit timestamp, validate
// if time progressed, install the write log, release locks.
func (tx *Tx) commit() error {
	if len(tx.writes) == 0 {
		return nil // reads were kept consistent incrementally
	}
	wv := tx.clock.GetNewTS().TS
	// One extension to the commit time is required if time progressed
	// since the snapshot (§1.1); wv = upper+1 means nothing committed in
	// between (the TL2 short cut carries over).
	if wv > tx.upper+1 {
		if !tx.validate() {
			tx.releaseLocks(0)
			return errAbortValidation
		}
	}
	for i := range tx.writes {
		w := &tx.writes[i]
		tx.stm.mem[w.addr].Store(w.val)
	}
	tx.releaseLocks(wv)
	return nil
}

// releaseLocks frees owned stripes. version 0 restores the pre-lock
// version (abort); otherwise stripes are stamped with the new version.
func (tx *Tx) releaseLocks(version int64) {
	for _, st := range tx.locked {
		l := tx.stm.locks[st].Load()
		if version == 0 {
			tx.stm.locks[st].Store(l &^ lockBit)
		} else {
			tx.stm.locks[st].Store(version << 1)
		}
	}
	tx.locked = tx.locked[:0]
}

// Run executes fn transactionally, retrying on aborts.
func (t *Thread) Run(fn func(*Tx) error) error { return t.run(false, fn) }

// RunReadOnly executes fn as a read-only transaction.
func (t *Thread) RunReadOnly(fn func(*Tx) error) error { return t.run(true, fn) }

func (t *Thread) run(readOnly bool, fn func(*Tx) error) error {
	tx := &t.tx
	if t.running {
		// A body that starts another transaction on its own Thread gets a
		// flat, independent one: the recycled record is the outer attempt's.
		tx = &Tx{stm: t.stm, clock: t.clock}
	} else {
		t.running = true
		defer func() { t.running = false }()
	}
	return abort.Retry(&t.stats, ErrAborted, func() error {
		tx.reset(t.clock.GetTime().TS, readOnly)
		if err := fn(tx); err != nil {
			tx.releaseLocks(0)
			return err
		}
		return tx.commit()
	})
}
