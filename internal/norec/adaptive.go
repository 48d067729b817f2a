package norec

// The striped and adaptive variants: NOrec with a partitioned sequence lock
// ("norec/striped"), optionally escalating wide transactions to a
// global-window protocol ("norec/adaptive"). Both are one universe type,
// AdaptiveSTM; the striped backend is that universe constructed with
// escalation unreachable (NewStriped), so the striped protocol below exists
// exactly once.
//
// Plain NOrec serializes every update commit on one global sequence-lock
// cache line — the extreme single-counter design, and (per ROADMAP) the
// probe target for where value-based validation stops being the bottleneck.
// AdaptiveSTM shards that lock: every cell belongs to one stripe (round
// robin at creation), each stripe carries its own sequence lock, and a
// transaction validates only the stripes it touched. Disjoint commits bump
// disjoint cache lines and proceed in parallel.
//
// Striped consistency protocol:
//
//   - Reads keep one snapshot per touched stripe. All per-stripe snapshots
//     are (re)established together — establish() waits for every touched
//     stripe to be quiescent, re-validates the whole value log, and
//     confirms no touched stripe moved during the scan — so the log is
//     always consistent at one common point, the latest establishment. A
//     read in a stripe whose sequence is unchanged since that point returns
//     a value that was current at it; a moved (or locked) stripe triggers
//     re-establishment, which is where "validate only touched stripes"
//     replaces NOrec's global revalidation.
//
//   - Commit locks the write stripes in ascending index order (no deadlock
//     among lockers), then validates the read log: held stripes are stable
//     by ownership, foreign stripes are checked under the quiescence
//     re-check loop, and a stripe that stays locked by someone else aborts
//     the commit after a bounded spin — waiting forever could deadlock with
//     a holder that is validating against one of *our* stripes. After
//     validation the buffered writes land in the cells and every held
//     stripe is released with +2; an aborted commit restores the exact
//     pre-lock sequence values (no writes happened, so readers that
//     snapshotted them stay valid).
//
// The cross-commit serializability argument is the TL2-shaped one: for two
// transactions to miss each other's writes, each would have to validate its
// reads before the other locked its write stripes, and each validation
// observes the other's write stripes unlocked and unchanged — which orders
// each validation before the other's lock acquisition, a cycle.
//
// Escalation. The striped protocol wins when transactions stay narrow, but
// a transaction that fans out over many stripes pays O(touched stripes) at
// every first touch and at every validation. An adaptive universe counts
// the stripes an attempt's read set touches and escalates the attempt to
// the global path when it crosses a threshold (mid-attempt, keeping the
// validated log) or when striped attempts keep aborting (the retry loop
// starts the attempt escalated).
//
// The global path replaces per-stripe snapshots with one pair of shared
// write-window counters (wstart, wfin) — a multi-writer sequence lock:
// every writer bumps wstart when it enters its commit critical section
// (write stripes locked, before validation) and wfin when it leaves
// (after write-back or abort). A reader observes a stable point whenever
// wstart == wfin and wstart is unchanged across its read or validation
// scan: any write-back overlapping the scan implies a writer either active
// at its start (wstart > wfin) or arriving during it (wstart moved).
// Escalated reads therefore cost one shared load instead of a per-stripe
// establishment — the wide-scan tax is gone — at the price of reintroducing
// a shared cache line, which is exactly the trade the escalation threshold
// arbitrates.
//
// Coexistence protocol (who bumps the window):
//
//   - Escalated transactions register in esc for the whole attempt. While
//     esc != 0, striped committers bracket their critical section — from
//     after phase-1 locking through write-back/abort — with wstart/wfin.
//     With esc == 0 (no escalated transaction anywhere) striped commits
//     touch no shared line, preserving the striped scaling story.
//   - Registration race: a striped committer that loaded esc == 0 already
//     held all its write stripes when the escalated transaction registered
//     (the esc load sits after phase 1). So escalation drains once — waits
//     for every stripe to be momentarily quiescent — before taking its
//     first window snapshot: any unbracketed write-back still in flight
//     completes before the drain does, and every later committer observes
//     esc != 0 and brackets.
//   - Escalated commits still lock their write stripes (ascending, like
//     striped commits) so striped readers and validators observe their
//     write-backs through the stripe sequences, and bump the window so
//     escalated readers observe them too.
//
// Serializability of the mixed mode is the striped argument extended by
// the window: a striped transaction's validation orders against a foreign
// writer's stripe locks (quiescence check), an escalated transaction's
// validation orders against a foreign writer's window entry — which the
// writer performs at lock time, not write-back time, so "validated before
// the window opened" implies "validated before the locks were taken" and
// the two-transaction cycle collapses exactly as in the striped proof.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/abort"
	"repro/internal/val"
)

// stripeCount is the maximum (and default) number of sequence-lock stripes.
// A power of two; 64 stripes × one cache line each keep a universe's lock
// table at 4 KiB while making same-stripe collisions rare for the bench
// workloads' cell counts — and let the touched-stripe sets be uint64 bitmaps.
const stripeCount = 64

// stripe is one padded sequence lock (even = quiescent, odd = locked).
type stripe struct {
	seq atomic.Int64
	_   [56]byte
}

// Adaptive protocol defaults.
const (
	// DefaultEscalateStripes is the touched-stripe count beyond which an
	// attempt escalates mid-flight.
	DefaultEscalateStripes = 8
	// DefaultEscalateAborts is the number of aborted striped attempts after
	// which the retry loop starts attempts escalated.
	DefaultEscalateAborts = 3
)

// AdaptiveOptions parameterize an adaptive universe. Zero values select the
// defaults.
type AdaptiveOptions struct {
	// Stripes is the number of sequence-lock stripes: a power of two in
	// [1, 64] (the touched-stripe tracking is a uint64 bitmap). Default 64.
	Stripes int
	// EscalateStripes is the touched-stripe threshold: an attempt whose
	// read set is about to span more stripes than this escalates to the
	// global path. Values ≥ Stripes never escalate by width. Default 8.
	EscalateStripes int
	// EscalateAborts is how many striped attempts of one transaction may
	// abort before the retry loop starts attempts escalated. Default 3.
	EscalateAborts int
}

// AdaptiveSTM is a NOrec universe running the striped protocol with
// per-attempt escalation to a global write-window protocol.
type AdaptiveSTM struct {
	stripes  [stripeCount]stripe
	nstripes int
	mask     uint32
	// escStripes/escAborts are the escalation thresholds (see
	// AdaptiveOptions).
	escStripes int
	escAborts  int

	_ [64]byte
	// esc counts registered escalated attempts; striped committers bracket
	// their critical sections with the window only while it is nonzero.
	esc atomic.Int64
	_   [56]byte
	// wstart/wfin are the global write-window counters: wstart is bumped by
	// a writer entering its critical section (stripes locked), wfin by the
	// writer leaving it. wstart == wfin means no writer is mid-flight.
	wstart atomic.Int64
	_      [56]byte
	wfin   atomic.Int64
	_      [56]byte
	// escCommits counts commits whose attempt ran escalated — the
	// escalation-rate telemetry.
	escCommits atomic.Uint64
}

// NewAdaptive creates an adaptive universe.
func NewAdaptive(o AdaptiveOptions) (*AdaptiveSTM, error) {
	if o.Stripes == 0 {
		o.Stripes = stripeCount
	}
	if o.Stripes < 1 || o.Stripes > stripeCount || o.Stripes&(o.Stripes-1) != 0 {
		return nil, fmt.Errorf("norec: adaptive stripe count %d not a power of two in [1, %d]", o.Stripes, stripeCount)
	}
	if o.EscalateStripes == 0 {
		o.EscalateStripes = DefaultEscalateStripes
	}
	if o.EscalateStripes < 1 {
		return nil, fmt.Errorf("norec: adaptive escalation threshold %d < 1", o.EscalateStripes)
	}
	if o.EscalateAborts == 0 {
		o.EscalateAborts = DefaultEscalateAborts
	}
	if o.EscalateAborts < 1 {
		return nil, fmt.Errorf("norec: adaptive abort-escalation threshold %d < 1", o.EscalateAborts)
	}
	return newAdaptive(o.Stripes, o.EscalateStripes, o.EscalateAborts), nil
}

// NewStriped creates the purely striped universe: stripeCount stripes with
// escalation unreachable — no read set spans more stripes than exist, and no
// retry loop reaches the abort threshold — so esc stays 0 forever and no
// commit ever touches the write window. What it pays over a universe without
// the escalation machinery is the escalated/width check per read and the esc
// load per update commit.
func NewStriped() *AdaptiveSTM {
	return newAdaptive(stripeCount, stripeCount, math.MaxInt)
}

func newAdaptive(stripes, escStripes, escAborts int) *AdaptiveSTM {
	return &AdaptiveSTM{
		nstripes:   stripes,
		mask:       uint32(stripes - 1),
		escStripes: escStripes,
		escAborts:  escAborts,
	}
}

// EscalatedCommits returns how many commits ran escalated. Call while no
// transactions run.
func (s *AdaptiveSTM) EscalatedCommits() uint64 { return s.escCommits.Load() }

// sindex maps an object to its stripe under this universe's stripe count.
func (s *AdaptiveSTM) sindex(o *Object) uint { return uint(o.sid & s.mask) }

// ATx is one transaction attempt against a striped/adaptive universe. Like
// the plain Tx it is recycled by its thread: nothing an attempt builds
// escapes it. The escalated flag selects the protocol the rest of the
// attempt runs.
type ATx struct {
	stm       *AdaptiveSTM
	readOnly  bool
	boxed     bool
	escalated bool
	reads     []readEntry
	writeSet
	// touched marks stripes with a valid snapshot; snaps[s] is the stripe's
	// sequence value at the latest establishment (one common consistency
	// point for all touched stripes).
	touched uint64
	snaps   [stripeCount]int64
	// lockVals[s] is the pre-lock (even) sequence value of each stripe held
	// during commit, for release or restore.
	lockVals [stripeCount]int64
	// gsnap is the escalated-mode snapshot: the wstart value the value log
	// is consistent at (taken with wstart == wfin).
	gsnap int64
}

// reset rearms the attempt; escalated attempts register before their first
// read. With an empty log the registration's revalidation cannot abort.
func (tx *ATx) reset(stm *AdaptiveSTM, readOnly, escalated bool) {
	tx.stm = stm
	tx.readOnly = readOnly
	tx.boxed = false
	tx.escalated = false
	tx.reads = tx.reads[:0]
	tx.writeSet.reset()
	tx.touched = 0
	if escalated {
		// Cannot fail: the value log is empty.
		_ = tx.escalate()
	}
}

// escalate switches the attempt to the global protocol: register (so
// striped committers start bracketing their write-backs), drain the
// stripes once (committers that pre-date the registration and never
// bracket finish before the drain does), then move the already-validated
// value log to a stable window point. The log stays exact across the
// switch — on revalidation failure the attempt aborts and the next one
// starts escalated.
func (tx *ATx) escalate() error {
	stm := tx.stm
	stm.esc.Add(1)
	tx.escalated = true
	for s := 0; s < stm.nstripes; s++ {
		waitEven(&stm.stripes[s].seq)
	}
	return tx.grevalidate()
}

// grevalidate re-checks the whole value log at a stable window point and
// adopts it as the escalated snapshot — the global-path revalidate loop.
func (tx *ATx) grevalidate() error {
	stm := tx.stm
	for i := 0; ; i++ {
		s := stm.wstart.Load()
		if stm.wfin.Load() != s {
			// A writer is mid-flight; its write-back may be half-visible.
			if i > 32 {
				runtime.Gosched()
			}
			continue
		}
		if !logValid(tx.reads) {
			return errAbortSnapshot
		}
		// The scan only proves consistency at s if no writer entered the
		// window while it ran.
		if stm.wstart.Load() == s {
			tx.gsnap = s
			return nil
		}
	}
}

// Read returns o's value in the transaction's snapshot as `any`.
func (tx *ATx) Read(o *Object) (any, error) {
	v, err := tx.ReadValue(o)
	if err != nil {
		return nil, err
	}
	return v.Load(), nil
}

// ReadValue returns o's value in the transaction's snapshot. Striped mode
// re-establishes the per-stripe snapshots whenever o's stripe has moved;
// crossing the touched-stripe threshold escalates the attempt in place;
// escalated mode validates against the write window only.
func (tx *ATx) ReadValue(o *Object) (val.Value, error) {
	if idx, ok := tx.lookup(o); ok {
		return tx.writes[idx].v, nil
	}
	if tx.escalated {
		return tx.readGlobal(o)
	}
	stm := tx.stm
	s := stm.sindex(o)
	bit := uint64(1) << s
	if tx.touched&bit == 0 && bits.OnesCount64(tx.touched|bit) > stm.escStripes {
		if err := tx.escalate(); err != nil {
			return val.Value{}, err
		}
		return tx.readGlobal(o)
	}
	for {
		if tx.touched&bit == 0 || stm.stripes[s].seq.Load() != tx.snaps[s] {
			if err := tx.establish(bit); err != nil {
				return val.Value{}, err
			}
			continue
		}
		num, box := o.cell.Snapshot()
		if stm.stripes[s].seq.Load() != tx.snaps[s] {
			continue // a commit landed between the loads; re-establish
		}
		tx.reads = append(tx.reads, readEntry{obj: o, num: num, box: box})
		return val.Decode(num, box), nil
	}
}

// readGlobal is the escalated read path: one shared load validates the
// snapshot, the write window detects concurrent write-backs.
func (tx *ATx) readGlobal(o *Object) (val.Value, error) {
	stm := tx.stm
	for {
		num, box := o.cell.Snapshot()
		if stm.wstart.Load() == tx.gsnap {
			// No writer entered the window since the snapshot point, so no
			// memory changed: the pair is consistent with the logged values.
			tx.reads = append(tx.reads, readEntry{obj: o, num: num, box: box})
			return val.Decode(num, box), nil
		}
		if err := tx.grevalidate(); err != nil {
			return val.Value{}, err
		}
	}
}

// establish (re)snapshots every touched stripe plus newBits at one common
// quiescent point. The moved bitmap marks touched stripes whose sequence
// left our snapshot; when it is empty — the dominant case for a wide scan's
// first touch of each new stripe — the old snapshots extend to the new
// common point for free and the value log is never walked. When stripes did
// move, only entries whose stripe bit is set in moved are re-validated (an
// unchanged stripe's cells are untouched), which keeps a transaction that
// fans out over many stripes linear in its reads instead of quadratic.
// Called with no stripe locks held, so unbounded waiting cannot deadlock.
func (tx *ATx) establish(newBits uint64) error {
	stm := tx.stm
	want := tx.touched | newBits
	for {
		var cur [stripeCount]int64
		var moved uint64
		for m := want; m != 0; m &= m - 1 {
			s := uint(bits.TrailingZeros64(m))
			cur[s] = waitEven(&stm.stripes[s].seq)
			if tx.touched&(uint64(1)<<s) != 0 && cur[s] != tx.snaps[s] {
				moved |= uint64(1) << s
			}
		}
		// Entries only exist in touched stripes, whose snaps are valid.
		if moved != 0 {
			for i := range tx.reads {
				r := &tx.reads[i]
				if moved&(uint64(1)<<stm.sindex(r.obj)) == 0 {
					continue
				}
				if !stillValid(r) {
					return errAbortSnapshot
				}
			}
		}
		// The stability re-check stays even when nothing moved: a committer
		// spanning two want stripes could land between their first-pass
		// reads, leaving cur a torn cross-stripe point.
		stable := true
		for m := want; m != 0; m &= m - 1 {
			s := uint(bits.TrailingZeros64(m))
			if stm.stripes[s].seq.Load() != cur[s] {
				stable = false
				break
			}
		}
		if stable {
			for m := want; m != 0; m &= m - 1 {
				s := uint(bits.TrailingZeros64(m))
				tx.snaps[s] = cur[s]
			}
			tx.touched = want
			return nil
		}
	}
}

// Write buffers the new value; it becomes visible at commit.
func (tx *ATx) Write(o *Object, v any) error {
	return tx.WriteValue(o, val.OfAny(v))
}

// WriteValue buffers the new typed value; numeric-lane values never box.
func (tx *ATx) WriteValue(o *Object, v val.Value) error {
	if tx.readOnly {
		return ErrReadOnly
	}
	if v.Kind() == val.KindBoxed {
		tx.boxed = true
	}
	if idx, ok := tx.lookup(o); ok {
		tx.writes[idx].v = v
		return nil
	}
	tx.add(o, v)
	return nil
}

// commit locks the write stripes, validates the read log under the
// attempt's protocol, writes back, and releases. Write-free transactions
// are consistent at their latest establishment (or window point) and commit
// without touching any lock.
//
// While any escalated attempt is registered — this one included — the whole
// critical section, validation through write-back or abort, is bracketed by
// wstart/wfin so escalated readers order against it. The esc load sits
// after phase 1, which is what the escalation drain relies on. Escalated
// commits lock their write stripes like striped ones so that striped
// transactions order against them through the stripe sequences.
func (tx *ATx) commit() error {
	if len(tx.writes) == 0 {
		return nil
	}
	stm := tx.stm
	wmask := tx.lockWriteStripes()
	inWindow := tx.escalated || stm.esc.Load() != 0
	if inWindow {
		stm.wstart.Add(1)
	}
	var err error
	if tx.escalated {
		err = tx.validateGlobal()
	} else {
		err = tx.validateStriped(wmask)
	}
	if err == nil {
		tx.writeBack()
	}
	tx.release(wmask, err == nil)
	if inWindow {
		stm.wfin.Add(1)
	}
	return err
}

// lockWriteStripes is commit phase 1: lock every write stripe in ascending
// index order and record the pre-lock values for release or restore.
// Spinning on a foreign holder here cannot deadlock: holders only wait
// (boundedly) in validation, never on lower-indexed locks.
func (tx *ATx) lockWriteStripes() (wmask uint64) {
	stm := tx.stm
	for i := range tx.writes {
		wmask |= uint64(1) << stm.sindex(tx.writes[i].obj)
	}
	for m := wmask; m != 0; m &= m - 1 {
		s := uint(bits.TrailingZeros64(m))
		st := &stm.stripes[s]
		for i := 0; ; i++ {
			v := st.seq.Load()
			if v&1 == 0 && st.seq.CompareAndSwap(v, v+1) {
				tx.lockVals[s] = v
				break
			}
			if i > 32 {
				runtime.Gosched()
			}
		}
	}
	return wmask
}

// validateStriped is the striped commit's phase 2, run with the wmask
// stripes held. Entries in held stripes are stable by ownership; foreign
// read stripes are re-checked for quiescence and stability around the scan,
// with a bounded number of rounds — a stripe held by a committer that is
// itself validating against one of our stripes must resolve by one of us
// aborting.
func (tx *ATx) validateStriped(wmask uint64) error {
	stm := tx.stm
	var rmask uint64
	for i := range tx.reads {
		rmask |= uint64(1) << stm.sindex(tx.reads[i].obj)
	}
	foreign := rmask &^ wmask
	var cur [stripeCount]int64
rounds:
	for round := 0; round < 64; round++ {
		for m := foreign; m != 0; m &= m - 1 {
			s := uint(bits.TrailingZeros64(m))
			v := stm.stripes[s].seq.Load()
			if v&1 == 1 {
				runtime.Gosched()
				continue rounds
			}
			cur[s] = v
		}
		if !logValid(tx.reads) {
			return errAbortValidation
		}
		for m := foreign; m != 0; m &= m - 1 {
			s := uint(bits.TrailingZeros64(m))
			if stm.stripes[s].seq.Load() != cur[s] {
				continue rounds
			}
		}
		return nil
	}
	return errAbortContention
}

// validateGlobal is the escalated commit's phase 2, run inside the window:
// validate the whole value log at a point where no other writer is
// mid-flight. The only-writer check (wfin == wstart−1: our own entry is the
// one outstanding) is bounded — a peer stuck in its own validation against
// our stripes aborts within its bounded loop, so waiting resolves.
func (tx *ATx) validateGlobal() error {
	stm := tx.stm
	for round := 0; round < 64; round++ {
		s := stm.wstart.Load()
		if stm.wfin.Load() != s-1 {
			runtime.Gosched()
			continue
		}
		if !logValid(tx.reads) {
			return errAbortValidation
		}
		if stm.wstart.Load() == s {
			return nil
		}
	}
	return errAbortContention
}

// release unlocks every stripe in mask: committed stripes advance by two,
// aborted ones restore the exact pre-lock value (no writes happened, so
// concurrent logs snapshotted at it remain valid).
func (tx *ATx) release(mask uint64, committed bool) {
	for m := mask; m != 0; m &= m - 1 {
		s := uint(bits.TrailingZeros64(m))
		v := tx.lockVals[s]
		if committed {
			v += 2
		}
		tx.stm.stripes[s].seq.Store(v)
	}
}

// AThread is a worker context for the striped/adaptive universe. It owns the
// one ATx it recycles across attempts — single goroutine only.
type AThread struct {
	stm          *AdaptiveSTM
	tx           ATx
	boxedCommits uint64
	aborts       abort.Counts
}

// Thread creates a worker context.
func (s *AdaptiveSTM) Thread(id int) *AThread { return &AThread{stm: s} }

// BoxedCommits returns how many of this thread's commits wrote at least one
// escape-hatch (boxed) payload.
func (t *AThread) BoxedCommits() uint64 { return t.boxedCommits }

// AbortCounts returns this thread's aborts classified by reason. Every abort
// of an escalated attempt — whatever its site — is charged to Escalation, so
// the cost of running (or being forced onto) the global path is one number.
func (t *AThread) AbortCounts() abort.Counts { return t.aborts }

// Run executes fn transactionally, retrying on aborts.
func (t *AThread) Run(fn func(*ATx) error) error { return t.run(false, fn) }

// RunReadOnly executes fn as a read-only transaction (writes rejected).
func (t *AThread) RunReadOnly(fn func(*ATx) error) error { return t.run(true, fn) }

func (t *AThread) run(readOnly bool, fn func(*ATx) error) error {
	tx := &t.tx
	stm := t.stm
	for attempt := 0; ; attempt++ {
		// Repeated striped aborts escalate the whole attempt from the start.
		tx.reset(stm, readOnly, attempt >= stm.escAborts)
		err := fn(tx)
		if err == nil {
			err = tx.commit()
		}
		if tx.escalated {
			stm.esc.Add(-1)
		}
		if err == nil {
			if tx.escalated {
				stm.escCommits.Add(1)
			}
			if tx.boxed {
				t.boxedCommits++
			}
			return nil
		}
		if !errors.Is(err, ErrAborted) {
			return err
		}
		if tx.escalated {
			t.aborts[abort.Escalation]++
		} else {
			t.aborts.Observe(err)
		}
		if attempt > 2 {
			runtime.Gosched()
		}
	}
}
