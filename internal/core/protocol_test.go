package core

// Deterministic tests for the in-place commit protocol: what a thread finds
// when it comes late to a locator (after the writer was settled and trimmed,
// after an abort put the old locator back, after the commit it wants to help
// is long over), and what the merged access-set entry and the log-free
// read-only path return. Each schedule is built by hand, one step at a time,
// on one goroutine — the concurrent tests reach the same states only now and
// then. The last three are about the one record a Thread's declared
// read-only attempts share.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/timebase"
)

// mustWrite drives a hand-built transaction through one write.
func mustWrite(t *testing.T, tx *Tx, o *Object, v int) {
	t.Helper()
	if err := tx.Write(o, v); err != nil {
		t.Fatal(err)
	}
}

// TestStaleWriterLocatorAfterTrim: with MaxVersions 1, settling a committed
// writer cuts its version's prev. A thread still holding the writer's
// locator from before the commit must see "no head, reload" — and a settler
// that was preempted between trim and the locator CAS leaves an object every
// path can still be driven through.
func TestStaleWriterLocatorAfterTrim(t *testing.T) {
	rt := counterRT(func(c *Config) { c.MaxVersions = 1 })
	o := NewObject(1)
	genesis := o.loc.Load().ver
	w := rt.Thread(0).newTx(false)
	mustWrite(t, w, o, 2)

	stale := o.loc.Load()
	if stale.writer != w || stale.head() != genesis {
		t.Fatalf("writer locator: writer %p head %p, want %p over genesis %p", stale.writer, stale.head(), w, genesis)
	}
	if err := w.commit(); err != nil {
		t.Fatal(err)
	}
	fresh := o.settled(rt.maxVersions)
	if fresh.writer != nil || fresh.ver != stale.ver || fresh != &stale.ver.selfLoc {
		t.Fatal("settle did not promote the tentative version in place")
	}
	if stale.head() != nil {
		t.Fatal("stale writer locator still yields a head after its predecessor was trimmed")
	}
	ub := genesis.until.Load()
	if ub == nil || *ub != w.CT().Pred() || fresh.ver.validFrom() != w.CT() {
		t.Fatalf("stamps: genesis until %v, head from %v, CT %v", ub, fresh.ver.validFrom(), w.CT())
	}

	// Put the writer's locator back: the state a racing settler leaves when
	// it is preempted after trim, before its locator CAS.
	for _, use := range []struct {
		name string
		fn   func(t *testing.T)
	}{
		{"prelimUB", func(t *testing.T) {
			clock := rt.TimeBase().Clock(3)
			if got := prelimUB(o, genesis, timebase.Exact(1<<40), nil, clock); got != *ub {
				t.Errorf("bound of the trimmed-away version = %v, want its stamp %v", got, *ub)
			}
		}},
		{"read", func(t *testing.T) {
			if got := mustReadInt(t, rt, o); got != 2 {
				t.Errorf("read %d, want 2", got)
			}
		}},
		{"write", func(t *testing.T) {
			if err := rt.Thread(1).Run(func(tx *Tx) error { return tx.Write(o, 3) }); err != nil {
				t.Fatal(err)
			}
			if got := mustReadInt(t, rt, o); got != 3 {
				t.Errorf("read %d, want 3", got)
			}
		}},
	} {
		o.loc.Store(stale)
		t.Run(use.name, use.fn)
	}
}

// TestAbortedWriterSettlesToBaseLocator: dropping an aborted writer builds
// nothing — the object goes back to the locator embedded in the version the
// writer was acquired over — and that re-publication is a benign ABA for a
// competitor whose CAS was prepared against the same locator before.
func TestAbortedWriterSettlesToBaseLocator(t *testing.T) {
	rt := counterRT()
	th := rt.Thread(0)

	const runs = 100
	objs := make([]*Object, runs+1) // AllocsPerRun adds one warm-up call
	for i := range objs {
		objs[i] = NewObject(7)
		w := th.newTx(false)
		mustWrite(t, w, objs[i], 99)
		w.abort()
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		o := objs[next]
		next++
		if loc := o.settled(rt.maxVersions); loc.writer != nil {
			t.Fatal("aborted writer not settled")
		}
	}); got != 0 {
		t.Errorf("settling an aborted writer: %.1f allocs, want 0", got)
	}

	o := NewObject(7)
	pre := o.loc.Load()
	base := pre.ver
	// The competitor prepares its acquisition against pre…
	b := rt.Thread(1).newTx(false)
	tent, nloc := b.newWrite()
	tent.selfLoc.ver = tent
	nloc.writer, nloc.ver = b, tent
	tent.prev.Store(base)
	// …then another writer takes the object, aborts and is settled away.
	a := th.newTx(false)
	mustWrite(t, a, o, 99)
	a.abort()
	if got := o.settled(rt.maxVersions); got != pre || got != &base.selfLoc {
		t.Fatalf("after the abort o.loc = %p, want the base's own locator %p", got, pre)
	}
	if base.until.Load() != nil {
		t.Error("aborted writer bounded the version it was acquired over")
	}
	if !o.loc.CompareAndSwap(pre, nloc) {
		t.Fatal("competitor's CAS against the re-published locator failed")
	}
	if got := o.loc.Load().head(); got != base {
		t.Errorf("competitor installed over %p, want base %p", got, base)
	}
}

// TestLateHelperIsNoOp: a helper that took a reference to a committing
// transaction and gets to run only after it committed and every object was
// settled (and, with MaxVersions 1, trimmed) changes nothing.
func TestLateHelperIsNoOp(t *testing.T) {
	for _, maxV := range []int{1, DefaultMaxVersions} {
		rt := counterRT(func(c *Config) { c.MaxVersions = maxV })
		read, upgraded, blind := NewObject(1), NewObject(2), NewObject(3)
		w := rt.Thread(0).newTx(false)
		if _, err := w.Read(read); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Read(upgraded); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, w, upgraded, 20)
		mustWrite(t, w, blind, 30)
		if err := w.commit(); err != nil {
			t.Fatal(err)
		}
		ct := w.CT()
		var locs [3]*locator
		for i, o := range []*Object{read, upgraded, blind} {
			locs[i] = o.settled(maxV)
		}

		if !w.finishCommit(rt.TimeBase().Clock(5)) {
			t.Errorf("MaxVersions %d: late helper reports the committed transaction as aborted", maxV)
		}
		if w.Status() != StatusCommitted || w.CT() != ct {
			t.Errorf("MaxVersions %d: late helper moved status/CT to %v/%v", maxV, w.Status(), w.CT())
		}
		for i, o := range []*Object{read, upgraded, blind} {
			if o.loc.Load() != locs[i] {
				t.Errorf("MaxVersions %d: late helper replaced the locator of object %d", maxV, i)
			}
			if got, want := mustReadInt(t, rt, o), []int{1, 20, 30}[i]; got != want {
				t.Errorf("MaxVersions %d: object %d = %d, want %d", maxV, i, got, want)
			}
		}
	}
}

// TestReadOnlyRereadAroundCommit: a declared read-only transaction keeps no
// access set, so a second read of an object is selected and range-checked
// from scratch. Around a commit to that object it must find the same version
// again or abort — on exact and on masked (extsync) comparisons alike — and
// with a single version there is no older one to find.
func TestReadOnlyRereadAroundCommit(t *testing.T) {
	for _, maxV := range []int{1, DefaultMaxVersions} {
		forAllBases(t, Config{MaxVersions: maxV}, func(t *testing.T, rt *Runtime) {
			o := NewObject(10)
			th, writer := rt.Thread(0), rt.Thread(1)
			attempts := 0
			err := th.RunReadOnly(func(tx *Tx) error {
				attempts++
				first, err := tx.Read(o)
				if err != nil {
					return err
				}
				if attempts == 1 {
					if err := writer.Run(func(w *Tx) error { return w.Write(o, first.(int)+1) }); err != nil {
						t.Fatal(err)
					}
				}
				again, err := tx.Read(o)
				if err != nil {
					if attempts > 1 || !errors.Is(err, ErrAborted) {
						t.Errorf("attempt %d: re-read failed with %v", attempts, err)
					}
					return err
				}
				if again != first {
					t.Errorf("attempt %d: read %v, then %v in one read-only transaction", attempts, first, again)
				}
				if len(tx.entries) != 0 {
					t.Errorf("read-only transaction logged %d entries", len(tx.entries))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// (A masked time base may abort the retry too: the new version is
			// still inside the mask of the retry's clock reading.)
			if maxV == 1 && attempts < 2 {
				t.Errorf("single-version re-read past a commit took %d attempts, want abort + retry", attempts)
			}
		})
	}
}

// TestMergedEntry: one entry per object, whatever the order of accesses; the
// read version stays in it for validation, the tentative one serves reads.
func TestMergedEntry(t *testing.T) {
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		blind, upgraded := NewObject(1), NewObject(2)
		th := rt.Thread(0)
		err := th.Run(func(tx *Tx) error {
			// Blind write, then read.
			if err := tx.Write(blind, 10); err != nil {
				return err
			}
			if v, err := tx.Read(blind); err != nil || v != 10 {
				t.Errorf("read after blind write = %v, %v; want 10", v, err)
			}
			// Read, write, read.
			v, err := tx.Read(upgraded)
			if err != nil {
				return err
			}
			head := upgraded.loc.Load().ver
			if err := tx.Write(upgraded, v.(int)+18); err != nil {
				return err
			}
			if v, err := tx.Read(upgraded); err != nil || v != 20 {
				t.Errorf("read after upgrade = %v, %v; want 20", v, err)
			}
			if err := tx.Write(upgraded, 21); err != nil {
				return err
			}
			if len(tx.entries) != 2 || tx.writes != 2 {
				t.Fatalf("%d entries, %d writes; want 2 and 2", len(tx.entries), tx.writes)
			}
			if e := tx.entries[0]; e.obj != blind || e.ver != nil || e.tent == nil {
				t.Errorf("blind-write entry = %+v", e)
			}
			if e := tx.entries[1]; e.obj != upgraded || e.ver != head || e.tent == nil || e.tent.prev.Load() != head {
				t.Errorf("upgrade entry = %+v, read version %p", e, head)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := mustReadInt(t, rt, blind); got != 10 {
			t.Errorf("blind = %d, want 10", got)
		}
		if got := mustReadInt(t, rt, upgraded); got != 21 {
			t.Errorf("upgraded = %d, want 21", got)
		}
	})
}

// TestUpgradeAfterForeignCommitAborts: the merged entry keeps the version
// that was read, so a write upgrade over a newer head cannot commit.
func TestUpgradeAfterForeignCommitAborts(t *testing.T) {
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		o := NewObject(0)
		th, other := rt.Thread(0), rt.Thread(1)
		attempts := 0
		err := th.Run(func(tx *Tx) error {
			attempts++
			v, err := tx.Read(o)
			if err != nil {
				return err
			}
			if attempts == 1 {
				if err := other.Run(func(w *Tx) error { return w.Write(o, 100) }); err != nil {
					t.Fatal(err)
				}
			}
			return tx.Write(o, v.(int)+1)
		})
		if err != nil {
			t.Fatal(err)
		}
		if attempts < 2 {
			t.Errorf("%d attempts, want the first to abort", attempts)
		}
		if got := mustReadInt(t, rt, o); got != 101 {
			t.Errorf("o = %d, want 101 (lost update)", got)
		}
	})
}

// TestReadOnlyRetryOnReusedRecord: a read-only attempt that aborts (one
// version, superseded under it) retries in the same record, and so does the
// thread's next read-only transaction — with nothing of the earlier attempt
// left in it.
func TestReadOnlyRetryOnReusedRecord(t *testing.T) {
	rt := counterRT(func(c *Config) { c.MaxVersions = 1 })
	a, b := NewObject(10), NewObject(20)
	th, writer := rt.Thread(0), rt.Thread(1)
	var rec *Tx
	fresh := func(tx *Tx, attempt int) {
		t.Helper()
		if rec == nil {
			rec = tx
		}
		if tx != rec {
			t.Errorf("attempt %d ran in a new record", attempt)
		}
		// The shared counter is exact and nothing commits between begin and
		// this check, so a re-begun record's lower bound is the current time.
		now := th.Clock().GetTime()
		if tx.Status() != StatusActive || tx.cause != CauseNone || tx.closed ||
			tx.lower != now || !tx.upper.IsInf() {
			t.Errorf("attempt %d starts with status %v cause %v closed %v range [%v, %v], now %v",
				attempt, tx.Status(), tx.cause, tx.closed, tx.lower, tx.upper, now)
		}
	}
	attempts := 0
	sum := func(tx *Tx) error {
		fresh(tx, attempts)
		attempts++
		x, err := tx.Read(a)
		if err != nil {
			return err
		}
		if attempts == 1 {
			if err := writer.Run(func(w *Tx) error {
				mustWrite(t, w, a, 5)
				mustWrite(t, w, b, 25)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		y, err := tx.Read(b)
		if err != nil {
			if attempts > 1 || tx.cause != CauseSnapshot || tx.Status() != StatusAborted {
				t.Errorf("attempt %d: read failed with %v, cause %v, status %v", attempts, err, tx.cause, tx.Status())
			}
			return err
		}
		if x.(int)+y.(int) != 30 {
			t.Errorf("attempt %d saw %v + %v, want 30", attempts, x, y)
		}
		return nil
	}
	if err := th.RunReadOnly(sum); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || th.stats.AbortSnapshot != 1 {
		t.Fatalf("%d attempts, %d snapshot aborts, want 2 and 1", attempts, th.stats.AbortSnapshot)
	}
	if rec.Status() != StatusCommitted || th.roTx != rec {
		t.Fatalf("after the transaction: status %v, record back on the thread: %v", rec.Status(), th.roTx == rec)
	}
	attempts = 0
	if err := th.RunReadOnly(func(tx *Tx) error { fresh(tx, 0); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestNestedReadOnlyGetsOwnRecord: a read-only transaction issued from
// inside fn on the same Thread must not run in the record the outer attempt
// is still using.
func TestNestedReadOnlyGetsOwnRecord(t *testing.T) {
	rt := counterRT()
	a, b := NewObject(1), NewObject(2)
	th := rt.Thread(0)
	for name, outer := range map[string]func(func(*Tx) error) error{"RunReadOnly": th.RunReadOnly, "Run": th.Run} {
		if err := outer(func(tx *Tx) error {
			x, err := tx.Read(a)
			if err != nil {
				return err
			}
			lower, upper := tx.lower, tx.upper
			// Twice: the second finds the record the first left behind.
			for range 2 {
				if err := th.RunReadOnly(func(in *Tx) error {
					if in == tx {
						t.Errorf("in %s: nested RunReadOnly runs in the outer record", name)
					}
					_, err := in.Read(b)
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			if tx.Status() != StatusActive || tx.lower != lower || tx.upper != upper {
				t.Errorf("in %s: nested RunReadOnly changed the outer attempt: status %v range [%v, %v]→[%v, %v]",
					name, tx.Status(), lower, upper, tx.lower, tx.upper)
			}
			y, err := tx.Read(b)
			if err != nil {
				return err
			}
			if x.(int)+y.(int) != 3 {
				t.Errorf("in %s: outer read %v + %v, want 3", name, x, y)
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestReusedRecordUnderWriters: two scanners, each reusing its one record
// for every attempt, beside four transferring writers. Every scan sees the
// conserved total; that no other thread ever touches a scanner's record is
// the race detector's to prove.
func TestReusedRecordUnderWriters(t *testing.T) {
	rt := counterRT()
	const accounts, initial, writers, scanners = 64, 100, 4, 2
	objs := make([]*Object, accounts)
	for i := range objs {
		objs[i] = NewObject(initial)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	var wg sync.WaitGroup
	for id := 0; id < writers+scanners; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.Thread(id)
			transfer := func(i int) func(*Tx) error {
				from, to := objs[(id+i)%accounts], objs[(id+7*i+1)%accounts]
				return func(tx *Tx) error {
					if from == to {
						return nil
					}
					f, err := tx.Read(from)
					if err != nil {
						return err
					}
					g, err := tx.Read(to)
					if err != nil {
						return err
					}
					if err := tx.Write(from, f.(int)-1); err != nil {
						return err
					}
					return tx.Write(to, g.(int)+1)
				}
			}
			scan := func(tx *Tx) error {
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
			}
			for i := 0; time.Now().Before(deadline); i++ {
				var err error
				if id < writers {
					err = th.Run(transfer(i))
				} else {
					err = th.RunReadOnly(scan)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
