package core

// Reuse-safety tests for update records and versions: the owner settles a
// finished attempt out of every locator, a retired record or version is
// handed to a new attempt only once no thread that looked into it is still
// pinned, and a version an attempt read unpinned (its thread's own) does not
// come back before that attempt is over. They drive the engine through Run
// and RunReadOnly, so the pins are the ones the protocol sets when an
// attempt meets another thread's writer or version.

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// holdStale starts a read-only attempt on a that stays open until release
// is called. While it is open, b writes o, a reads o — and so pins, because
// o's writer is b's attempt — and keeps b's record, and then b commits. inA
// runs f on a's goroutine, inside that attempt. release returns once a's
// attempt has returned.
func holdStale(t *testing.T, a, b *Thread, o *Object) (stale *Tx, inA func(f func()), release func()) {
	t.Helper()
	do, done := make(chan func(*Tx)), make(chan struct{})
	go func() {
		defer close(done)
		if err := a.RunReadOnly(func(tx *Tx) error {
			for f := range do {
				f(tx)
			}
			return nil
		}); err != nil {
			t.Error(err)
		}
	}()
	inTx := func(f func(*Tx)) {
		ran := make(chan struct{})
		do <- func(tx *Tx) { f(tx); close(ran) }
		<-ran
	}
	inA = func(f func()) { inTx(func(*Tx) { f() }) }
	release = func() { close(do); <-done }
	once := false
	if err := b.Run(func(tx *Tx) error {
		if err := tx.WriteInt(o, big); err != nil {
			return err
		}
		if !once {
			once = true
			inTx(func(atx *Tx) {
				if _, _, err := atx.ReadInt(o); err != nil {
					t.Error(err)
				}
				stale = o.loc.Load().writer
			})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if stale == nil || stale.Status() != StatusCommitted {
		t.Fatalf("held record %p is not b's committed one", stale)
	}
	if a.pin.Load() == 0 {
		t.Fatal("reading past another thread's writer left the reader unpinned")
	}
	return stale, inA, release
}

// TestReuseWaitsForPinnedReader: while a thread that loaded a record is
// still in its attempt, none of the owner's later attempts runs in that
// record — however many it commits; once the reader is done, the owner's
// update commits allocate nothing again, and the held record is among the
// ones reused.
func TestReuseWaitsForPinnedReader(t *testing.T) {
	rt := counterRT()
	o := NewObject(big)
	a, b := rt.Thread(0), rt.Thread(1)
	stale, _, release := holdStale(t, a, b, o)
	bump := func(tx *Tx) error {
		if tx == stale {
			t.Fatal("a record still held by a pinned thread was reused")
		}
		v, _, err := tx.ReadInt(o)
		if err != nil {
			return err
		}
		return tx.WriteInt(o, big+(v+1)%100)
	}
	for range 1000 {
		if err := b.Run(bump); err != nil {
			t.Fatal(err)
		}
	}
	if stale.Status() != StatusCommitted {
		t.Fatalf("held record was reset to %v while its reader was pinned", stale.Status())
	}
	release()

	reused := false
	step := func() {
		if err := b.Run(func(tx *Tx) error {
			reused = reused || tx == stale
			v, _, err := tx.ReadInt(o)
			if err != nil {
				return err
			}
			return tx.WriteInt(o, big+(v+1)%100)
		}); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 * limboCap {
		step()
	}
	if !reused {
		t.Error("the held record was never reused after its reader unpinned")
	}
	if got := testing.AllocsPerRun(200, step); got != 0 {
		t.Errorf("%.1f allocs per update commit after the reader unpinned, want 0", got)
	}
}

// TestReuseStaleAbortMissesLaterAttempt: an enemy abort that a pinned thread
// fires through the record it holds, while the owner runs a new attempt,
// lands on the finished record, not on the new attempt.
func TestReuseStaleAbortMissesLaterAttempt(t *testing.T) {
	rt := counterRT()
	o := NewObject(big)
	a, b := rt.Thread(0), rt.Thread(1)
	stale, inA, release := holdStale(t, a, b, o)
	defer release()
	hit := errors.New("an abort through a held pointer took effect")
	for i := range 100 {
		if err := b.Run(func(tx *Tx) error {
			if err := tx.WriteInt(o, big+int64(i)); err != nil {
				return err
			}
			var aborted bool
			inA(func() { aborted = stale.abortExternal() })
			if aborted {
				return hit
			}
			return nil
		}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if n := b.Stats().AbortExternal; n != 0 {
		t.Errorf("%d of the owner's attempts were aborted externally, want 0", n)
	}
}

// parkWriter leaves an update attempt on a fresh thread open with o
// written, so that any other attempt reading o meets its writer; release
// lets that attempt commit and waits for it.
func parkWriter(t *testing.T, rt *Runtime, o *Object) (release func()) {
	t.Helper()
	written, hold, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		once := false
		if err := rt.Thread(9).Run(func(tx *Tx) error {
			if err := tx.WriteInt(o, big+9); err != nil {
				return err
			}
			if !once {
				once = true
				close(written)
				<-hold
			}
			return nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-written
	return func() { close(hold); <-done }
}

// TestReuseNestedRunKeepsOuterPin: a transaction nested in an attempt on the same
// thread that is pinned runs under that pin and leaves it in place; the pin
// is cleared when the outer transaction returns. Nested in an attempt that
// is not pinned, a transaction that pins ends unpinned again.
func TestReuseNestedRunKeepsOuterPin(t *testing.T) {
	rt := counterRT()
	o, p, q := NewObject(big), NewObject(big), NewObject(big)
	release := parkWriter(t, rt, q)
	defer release()
	th := rt.Thread(0)
	check := func(where string, want uint64) {
		t.Helper()
		if got := th.pin.Load(); got != want {
			t.Errorf("%s: pin %d, want %d", where, got, want)
		}
	}
	readQ := func(tx *Tx) error {
		_, _, err := tx.ReadInt(q)
		return err
	}
	for _, readOnly := range []bool{false, true} {
		run := th.Run
		if readOnly {
			run = th.RunReadOnly
		}
		if err := run(func(tx *Tx) error {
			check("at the start of an attempt", 0)
			if err := th.RunReadOnly(readQ); err != nil {
				return err
			}
			check("after a nested transaction pinned in an unpinned attempt", 0)
			if err := readQ(tx); err != nil {
				return err
			}
			outer := th.pin.Load()
			if outer == 0 {
				t.Fatal("reading past another thread's writer left the attempt unpinned")
			}
			if err := th.Run(func(tx *Tx) error {
				if err := readQ(tx); err != nil {
					return err
				}
				check("inside a nested update", outer)
				return tx.WriteInt(o, big+1)
			}); err != nil {
				return err
			}
			check("after a nested update", outer)
			if err := th.RunReadOnly(readQ); err != nil {
				return err
			}
			check("after a nested read-only", outer)
			if err := th.Run(func(*Tx) error { return errors.New("user") }); err == nil {
				t.Error("nested user error lost")
			}
			check("after a nested user abort", outer)
			if readOnly {
				return nil
			}
			return tx.WriteInt(p, big+2)
		}); err != nil {
			t.Fatal(err)
		}
		check("after the outer transaction", 0)
	}
}

// TestReuseFinishedRecordLeavesNoLocator: no attempt runs in a record that a
// locator still names, and pendingLen update attempts after an attempt
// finished — committed, aborted by the application, or aborted after the
// acquiring CAS and retried — no object it wrote names its record any
// more, though nothing else touched those objects. The retried case aborts
// after the CAS because the base it acquired over is newer than the snapshot
// can reach.
func TestReuseFinishedRecordLeavesNoLocator(t *testing.T) {
	rt := counterRT()
	x, y, f := NewObject(big), NewObject(big), NewObject(big)
	th, other := rt.Thread(0), rt.Thread(1)
	unnamed := func(when string, rec *Tx) {
		t.Helper()
		for i, o := range []*Object{x, y, f} {
			if o.loc.Load().writer == rec {
				t.Errorf("%s: object %d names the attempt's record", when, i)
			}
		}
	}
	run := func(fn func(*Tx) error) error {
		return th.Run(func(tx *Tx) error {
			unnamed("when an attempt starts", tx)
			return fn(tx)
		})
	}
	drain := func(when string) {
		t.Helper()
		for range pendingLen {
			if err := run(func(tx *Tx) error { return tx.WriteInt(f, big) }); err != nil {
				t.Fatal(err)
			}
		}
		// f's last writers are still pending: look at x and y only.
		for i, o := range []*Object{x, y} {
			if w := o.loc.Load().writer; w != nil && w.th == th {
				t.Errorf("%s: object %d still names a %v record of the thread", when, i, w.Status())
			}
		}
	}
	writeBoth := func(tx *Tx) error {
		if err := tx.WriteInt(x, big+1); err != nil {
			return err
		}
		v, _, err := tx.ReadInt(y)
		if err != nil {
			return err
		}
		return tx.WriteInt(y, v+1)
	}
	if err := run(writeBoth); err != nil {
		t.Fatal(err)
	}
	drain("after a commit")

	userErr := errors.New("user")
	if err := run(func(tx *Tx) error {
		if err := writeBoth(tx); err != nil {
			return err
		}
		return userErr
	}); err != userErr {
		t.Fatalf("Run = %v, want the user error", err)
	}
	drain("after a user abort")

	attempts := 0
	var cause AbortCause
	if err := run(func(tx *Tx) error {
		attempts++
		if attempts > 1 {
			return nil
		}
		if _, _, err := tx.ReadInt(x); err != nil {
			return err
		}
		// Supersede x and y after the snapshot's upper bound was fixed: the
		// write to y then acquires over a base the snapshot cannot reach.
		if err := other.Run(writeBoth); err != nil {
			return err
		}
		err := tx.WriteInt(y, big)
		if y.loc.Load().writer != tx {
			t.Error("the aborting write did not acquire y")
		}
		cause = tx.cause
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || cause != CauseSnapshot {
		t.Fatalf("%d attempts, first aborted for %v; want 2, snapshot", attempts, cause)
	}
	drain("after the retried commit")
}

// tents returns the tentative versions an attempt has written so far.
func tents(tx *Tx) []*version {
	var out []*version
	for _, e := range tx.entries {
		if e.tent != nil {
			out = append(out, e.tent)
		}
	}
	return out
}

// TestReuseWaitsForPinnedVersionReader: a read-only reader that holds a
// version of another thread's, as getVersion's walk through a history does,
// keeps it from being reused while it stays pinned, though the version is
// cut and its writer retires it and commits on past what would be two epoch
// advances; once the reader is done, the writer reuses it. The version is
// cut by its writer's own settle, or by a third thread's, which hands it to
// the writer's inbox: the writer drains it and keeps it for a grace period
// counted from the epoch of the drain, not from the older one its previous
// attempt began in (the reader pins two epochs after that).
func TestReuseWaitsForPinnedVersionReader(t *testing.T) {
	t.Run("own cut", func(t *testing.T) { waitsForPinnedVersionReader(t, false) })
	t.Run("foreign cut", func(t *testing.T) { waitsForPinnedVersionReader(t, true) })
}

func waitsForPinnedVersionReader(t *testing.T, foreign bool) {
	rt := counterRT(func(c *Config) { c.MaxVersions = 2 })
	o := NewObject(big)
	a, b, c := rt.Thread(0), rt.Thread(1), rt.Thread(2)
	var seen *version // a version b wrote that the check below looks for
	bump := func(tx *Tx) error {
		if err := bumpAll(tx, []*Object{o}); err != nil {
			return err
		}
		if slices.Contains(tents(tx), seen) {
			return errReused
		}
		return nil
	}
	readO := func(tx *Tx) error { _, _, err := tx.ReadInt(o); return err }
	for range 4 {
		if err := b.Run(bump); err != nil {
			t.Fatal(err)
		}
	}
	// b settles its last commit, so that o's locator names no writer.
	if err := b.RunReadOnly(readO); err != nil {
		t.Fatal(err)
	}
	if o.loc.Load().writer != nil {
		t.Fatal("o still has a writer")
	}
	// b's last update attempt began two epochs before the reader pins.
	for range 2 {
		if !rt.advance(rt.epoch.Load()) {
			t.Fatal("the epoch did not advance")
		}
	}

	// a's read pins it: o's head is b's version. Then a walks one step down
	// the history, to the version the next settled commit cuts.
	held := make(chan *version)
	release, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		sent := false
		if err := a.RunReadOnly(func(tx *Tx) error {
			if err := readO(tx); err != nil || sent {
				return err
			}
			sent = true
			held <- o.loc.Load().head().prev.Load()
			<-release
			return nil
		}); err != nil {
			t.Error(err)
		}
	}()
	var v *version
	select {
	case v = <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the reader never got to the history")
	}
	if v == nil || v.owner != b {
		t.Fatal("the reader holds no version of b's")
	}
	pinned := a.pin.Load()
	if foreign {
		// c supersedes b's head and settles its commit: the trim cuts v.
		if err := c.Run(func(tx *Tx) error { return tx.WriteInt(o, big+7) }); err != nil {
			t.Fatal(err)
		}
		if err := c.RunReadOnly(readO); err != nil {
			t.Fatal(err)
		}
		if c.handed != 1 || b.inbox.slots[0].Load() != v {
			t.Fatalf("c handed back %d versions; b's inbox does not hold the one the reader holds", c.handed)
		}
	}
	value, _ := v.value.AsInt64()
	from, until := v.from.Load(), v.until.Load()
	seen = v
	for i := range 200 {
		if err := b.Run(bump); err == errReused {
			t.Fatalf("commit %d reused the version a pinned reader holds", i)
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if now := rt.epoch.Load(); now > pinned+1 {
		t.Errorf("epoch %d with a reader pinned at %d", now, pinned)
	}
	if b.cuts < 100 {
		t.Fatalf("b cut %d versions in 200 commits", b.cuts)
	}
	if b.inbox.slots[0].Load() != nil {
		t.Fatal("b did not drain its inbox")
	}
	if n, _ := v.value.AsInt64(); n != value || v.from.Load() != from || v.until.Load() != until {
		t.Error("the held version changed while its reader was pinned")
	}
	close(release)
	<-done

	reused := false
	for range 200 {
		switch err := b.Run(bump); err {
		case nil:
		case errReused:
			reused = true
			seen = nil
		default:
			t.Fatal(err)
		}
	}
	if !reused {
		t.Error("the held version was never reused after its reader unpinned")
	}
}

var errReused = errors.New("reused")

// TestRecycleInboxFull: a thread that cuts more of another thread's versions
// than its inbox has slots, while the owner runs nothing, hands back what
// fits and leaves the rest to the collector; the owner's next update
// attempt retires what was handed back, and every cut is counted once.
func TestRecycleInboxFull(t *testing.T) {
	rt := counterRT(func(c *Config) { c.MaxVersions = 1 })
	const extra = 4
	objs := make([]*Object, inboxLen+extra)
	for i := range objs {
		objs[i] = NewObject(big)
	}
	b, c := rt.Thread(0), rt.Thread(1)
	for _, o := range objs {
		if err := b.Run(func(tx *Tx) error { return bumpAll(tx, []*Object{o}) }); err != nil {
			t.Fatal(err)
		}
	}
	// c supersedes each of b's versions; its own settles cut b's.
	for _, o := range objs {
		if err := c.Run(func(tx *Tx) error { return bumpAll(tx, []*Object{o}) }); err != nil {
			t.Fatal(err)
		}
		if err := c.RunReadOnly(func(tx *Tx) error { _, _, err := tx.ReadInt(o); return err }); err != nil {
			t.Fatal(err)
		}
	}
	if c.handed != inboxLen || c.dropped != extra {
		t.Fatalf("c handed back %d and dropped %d of b's versions, want %d and %d", c.handed, c.dropped, inboxLen, extra)
	}
	retired := b.retired
	if err := b.Run(func(*Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := b.retired - retired; got != inboxLen {
		t.Errorf("b retired %d versions from its inbox, want %d", got, inboxLen)
	}
	checkCutsCounted(t, rt, len(objs))
}

// checkCutsCounted checks that each cut of rt's threads was counted once:
// retired by the version's owner, dropped, or still in an inbox, apart from
// the given number of genesis versions, which nobody reuses.
func checkCutsCounted(t *testing.T, rt *Runtime, genesis int) {
	t.Helper()
	cuts, counted := 0, genesis
	for th := rt.threads.Load(); th != nil; th = th.next {
		cuts += th.cuts
		counted += th.retired + th.dropped
		for i := range th.inbox.slots {
			if th.inbox.slots[i].Load() != nil {
				counted++
			}
		}
	}
	if cuts != counted {
		t.Errorf("%d cuts, %d counted as retired, dropped or in an inbox (%d genesis)", cuts, counted, genesis)
	}
}

// ownCutFixture has the update attempt tx of th read o's head — v, a
// version of th's own, so read unpinned — and then cut v itself: a nested
// update supersedes it and a nested read-only attempt settles that commit
// (MaxVersions 1 cuts the predecessor), so v is on th's list. Then the
// epoch advances twice, so v has served its grace period. It returns v.
func ownCutFixture(t *testing.T, rt *Runtime, th *Thread, tx *Tx, o *Object) *version {
	t.Helper()
	if _, _, err := tx.ReadInt(o); err != nil {
		t.Fatal(err)
	}
	v := tx.entries[len(tx.entries)-1].ver
	if v.owner != th {
		t.Fatal("o's head is not the thread's own")
	}
	if err := th.Run(func(tx *Tx) error { return tx.WriteInt(o, big+1) }); err != nil {
		t.Fatal(err)
	}
	if err := th.RunReadOnly(func(tx *Tx) error {
		_, _, err := tx.ReadInt(o)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if th.vers.n != 1 || th.vers.ring[th.vers.first] != v {
		t.Fatal("the thread did not retire the version it cut")
	}
	if th.pin.Load() != 0 {
		t.Fatal("the attempt pinned, though it met only its own thread's versions")
	}
	for range 2 {
		if !rt.advance(rt.epoch.Load()) {
			t.Fatal("the epoch did not advance")
		}
	}
	return v
}

// ownCutRun runs an update attempt that sets up ownCutFixture and then
// calls write, which returns the tentative versions it got. None of them
// may be the cut version, and the attempt, which wrote and read a
// superseded version, must fail validation; its retry only commits.
func ownCutRun(t *testing.T, write func(tx *Tx, p *Object) []*version) {
	rt := counterRT(func(c *Config) { c.MaxVersions = 1 })
	o, p, q := NewObject(big), NewObject(big), NewObject(big)
	th := rt.Thread(0)
	if err := th.Run(func(tx *Tx) error { return tx.WriteInt(o, big) }); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	if err := th.Run(func(tx *Tx) error {
		if attempts++; attempts > 1 {
			return nil
		}
		v := ownCutFixture(t, rt, th, tx, o)
		got := write(tx, p)
		if err := tx.WriteInt(q, big+3); err != nil {
			t.Fatal(err)
		}
		for _, w := range append(got, tents(tx)...) {
			if w == v {
				t.Error("the attempt got the version it read and cut back as a tentative one")
			}
		}
		if v.until.Load() == 0 {
			t.Error("the version the attempt read lost its upper bound")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || th.Stats().AbortValidation != 1 {
		t.Fatalf("%d attempts, %d validation aborts; the first read a superseded version and must not commit",
			attempts, th.Stats().AbortValidation)
	}
}

// TestReuseOwnCutVersionAbortsAttempt: an update attempt that read one of
// its thread's own versions and cut it does not get it back as a tentative
// version for its later writes, though the version's grace period is
// over, and its commit fails validation on the superseded version.
func TestReuseOwnCutVersionAbortsAttempt(t *testing.T) {
	ownCutRun(t, func(tx *Tx, p *Object) []*version {
		if err := tx.WriteInt(p, big+2); err != nil {
			t.Fatal(err)
		}
		return nil
	})
}

// TestReuseOwnCutVersionNestedRun: the same with a write made by a
// transaction nested in the attempt: a nested attempt frees no versions
// either.
func TestReuseOwnCutVersionNestedRun(t *testing.T) {
	ownCutRun(t, func(tx *Tx, p *Object) []*version {
		var got []*version
		if err := tx.th.Run(func(tx *Tx) error {
			if err := tx.WriteInt(p, big+2); err != nil {
				return err
			}
			got = tents(tx)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	})
}

// TestReuseGrownRecordsUnderHelpers: writers whose transactions alternate
// between two and twenty objects, so their records overflow into entry
// slices and locator chunks that later attempts start on, beside read-only
// scanners. Each writer first runs alone until its records have grown, as
// the scanners can hold the epoch up for a whole run. The writers contend,
// so they help and abort one another and read each other's frozen entries
// and locators in those arrays while the owners go on reusing them. Each
// transaction moves one unit from every object it writes but the first to
// the first, and every scan sees the conserved total.
func TestReuseGrownRecordsUnderHelpers(t *testing.T) {
	const accounts, initial, writers, scanners, per = 32, 100, 3, 2, 300
	rt := counterRT()
	objs := make([]*Object, accounts)
	for i := range objs {
		objs[i] = NewObject(initial)
	}
	var grown [writers]int
	move := func(th *Thread, n, first int) error {
		return th.Run(func(tx *Tx) error {
			if cap(tx.entries) > smallAccessSet {
				grown[th.id]++
			}
			for k := range n {
				o := objs[(first+k)%accounts]
				v, err := tx.Read(o)
				if err != nil {
					return err
				}
				d := -1
				if k == 0 {
					d = n - 1
				}
				if err := tx.Write(o, v.(int)+d); err != nil {
					return err
				}
			}
			return nil
		})
	}
	threads := make([]*Thread, writers+scanners)
	for id := range threads {
		threads[id] = rt.Thread(id)
	}
	for _, th := range threads[:writers] {
		for i := range 64 {
			if err := move(th, 20, i); err != nil {
				t.Fatal(err)
			}
		}
		grown[th.id] = 0
	}
	var wg, swg sync.WaitGroup
	stop := make(chan struct{})
	for _, th := range threads[writers:] {
		swg.Add(1)
		go func() {
			defer swg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := th.RunReadOnly(func(tx *Tx) error {
					sum := 0
					for _, o := range objs {
						v, err := tx.Read(o)
						if err != nil {
							return err
						}
						sum += v.(int)
					}
					if sum != accounts*initial {
						t.Errorf("scan saw total %d, want %d", sum, accounts*initial)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for _, th := range threads[:writers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				if err := move(th, 2+18*(i%2), 5*th.id+i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	swg.Wait()
	for id, n := range grown {
		if n == 0 {
			t.Errorf("writer %d: no attempt beside the others started on a kept entry slice", id)
		}
	}
}

// TestRecycleCutsEachVersionOnce: racing settlers — read-only attempts
// settling one commit together, and stale ones settling a commit while the
// next is settled — cut each superseded version exactly once. Every
// version of o but the MaxVersions left in its history is cut: the genesis
// one and one per commit. Each cut is counted once: the readers hand back
// every version they cut, and the writers each other's, to the owner's
// inbox, and every version ends retired by its owner, dropped, or still in
// an inbox.
func TestRecycleCutsEachVersionOnce(t *testing.T) {
	for _, maxV := range []int{1, 2, DefaultMaxVersions} {
		rt := counterRT(func(c *Config) { c.MaxVersions = maxV })
		o := NewObject(big)
		const writers, readers, commits = 2, 3, 2000
		var wg, rwg sync.WaitGroup
		stop := make(chan struct{})
		threads := make([]*Thread, writers+readers)
		for i := range threads {
			threads[i] = rt.Thread(i)
		}
		for _, th := range threads[writers:] {
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := th.RunReadOnly(func(tx *Tx) error {
						_, _, err := tx.ReadInt(o)
						return err
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for _, th := range threads[:writers] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range commits {
					if err := th.Run(func(tx *Tx) error {
						v, _, err := tx.ReadInt(o)
						if err != nil {
							return err
						}
						return tx.WriteInt(o, v+1)
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		rwg.Wait()
		last := rt.Thread(writers + readers)
		var final int64
		if err := last.Run(func(tx *Tx) error {
			v, _, err := tx.ReadInt(o)
			final = v
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if final != big+writers*commits {
			t.Fatalf("MaxVersions %d: o is %d, want %d", maxV, final-big, writers*commits)
		}
		kept := 0
		for v := o.loc.Load().ver; v != nil; v = v.prev.Load() {
			kept++
		}
		cuts, handed := 0, 0
		for th := rt.threads.Load(); th != nil; th = th.next {
			cuts += th.cuts
			handed += th.handed
		}
		if want := 1 + writers*commits - kept; cuts != want {
			t.Errorf("MaxVersions %d: %d cuts of %d superseded versions (%d kept)", maxV, cuts, want, kept)
		}
		if handed == 0 {
			t.Errorf("MaxVersions %d: no cut version was handed back to its writer", maxV)
		}
		checkCutsCounted(t, rt, 1)
	}
}

// TestRecycleMaxVersionsOne: with no history beyond the head, every settle
// cuts the predecessor, and a steady update workload still allocates
// nothing: the thread retires what it cut. (TestScanUnderTransfers runs
// MaxVersions 1 under concurrent transfers and scans.)
func TestRecycleMaxVersionsOne(t *testing.T) {
	rt := counterRT(func(c *Config) { c.MaxVersions = 1 })
	objs := make([]*Object, 4)
	for i := range objs {
		objs[i] = NewObject(big)
	}
	th := rt.Thread(0)
	fn := func(tx *Tx) error { return bumpAll(tx, objs) }
	allocBudget(t, "core 4-write update, MaxVersions 1", 0, func() {
		if err := th.Run(fn); err != nil {
			t.Fatal(err)
		}
	})
	if th.vers.n == 0 {
		t.Error("the thread retired none of the versions it cut")
	}
}

// TestRecycleLimbo pins the list records and versions share: a retired item
// is held until its grace period is over, a never-published one is free at
// once, the list holds at most the caller's limit, the ring stays FIFO as it
// grows and wraps, and crowded sees a batch retired in one epoch.
func TestRecycleLimbo(t *testing.T) {
	const g, n = epochGrace, advanceAt
	var items [2*n + 3]int
	type step func(t *testing.T, l *limbo[int])
	put := func(i int, tag uint64, limit int) step {
		return func(t *testing.T, l *limbo[int]) { l.put(&items[i], tag, limit) }
	}
	take := func(now uint64, want int) step { // want -1: nothing is free
		return func(t *testing.T, l *limbo[int]) {
			got := l.take(now)
			if want < 0 && got != nil || want >= 0 && got != &items[want] {
				t.Fatalf("take(%d) = %p, want item %d (%p)", now, got, want, &items[max(want, 0)])
			}
		}
	}
	crowded := func(now uint64, want bool) step {
		return func(t *testing.T, l *limbo[int]) {
			if got := l.crowded(now); got != want {
				t.Fatalf("crowded(%d) = %v, want %v", now, got, want)
			}
		}
	}
	// retire puts items first..first+k-1, and drain takes them back.
	retire := func(first, k int, tag uint64, limit int) (s []step) {
		for i := range k {
			s = append(s, put(first+i, tag, limit))
		}
		return s
	}
	drain := func(first, k int, now uint64) (s []step) {
		for i := range k {
			s = append(s, take(now, first+i))
		}
		return s
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"held for the grace period", []step{
			put(1, 5, 8), take(5+g-1, -1), take(5+g, 1), take(100, -1),
		}},
		{"tag 0 is free at once", []step{
			put(1, 5, 8), put(2, 0, 8), take(0, 2), take(5+g-1, -1), take(5+g, 1),
		}},
		{"put past the limit drops the item", []step{
			put(1, 0, 2), put(2, 3, 2), put(3, 3, 2), put(4, 0, 2),
			take(100, 1), take(100, 2), take(100, -1),
		}},
		{"growth keeps FIFO order across the wrap", []step{
			put(1, 3, 4), put(2, 3, 4), put(3, 4, 4), take(3+g, 1), take(3+g, 2), take(3+g, -1),
			put(4, 5, 4), put(5, 5, 4), put(6, 6, 4), // ring full, wrapped
			put(7, 6, 4),               // dropped
			put(8, 7, 8), put(9, 7, 8), // grows
			take(4+g, 3), take(5+g, 4), take(5+g, 5), take(5+g, -1),
			take(100, 6), take(100, 8), take(100, 9), take(100, -1),
		}},
		// The ring holds n+2; the batch in epoch 9 wraps.
		{"crowded", slices.Concat(
			retire(1, n, 7, n+2), drain(1, n, 7+g),
			[]step{put(n+1, 8, n+2), put(n+2, 8, n+2), crowded(8, false)},
			retire(n+3, n-1, 9, n+2),
			[]step{crowded(9, false), put(2*n+2, 9, n+2), crowded(9, true), crowded(10, false)},
		)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var l limbo[int]
			for _, s := range c.steps {
				s(t, &l)
			}
		})
	}
}
