package core

// Reuse-safety tests for update records: the owner settles a finished
// attempt out of every locator, and a retired record is handed to a new
// attempt only once no thread that looked into it is still pinned. All of
// them drive the engine through Run and RunReadOnly, so the pins are the
// ones the protocol sets when an attempt meets another thread's writer.

import (
	"errors"
	"testing"
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
// update commits cost one allocation (the version chunk) again, and the held
// record is among the ones reused.
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
	if got := testing.AllocsPerRun(200, step); got != 1 {
		t.Errorf("%.1f allocs per update commit after the reader unpinned, want 1", got)
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
