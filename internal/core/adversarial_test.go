package core

// Adversarial schedule tests: drive the engine through the narrow races
// the protocol must survive — racing helpers, external aborts hitting every
// state, history trimming under readers — by manipulating transaction
// states directly (white-box) and by brute interleaving.

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/timebase"
)

// TestRacingHelpersAgreeOnOutcome parks update transactions in the
// committing state and lets several helpers finish each one concurrently;
// all must observe the same terminal state and the object must hold the
// committed value exactly once.
func TestRacingHelpersAgreeOnOutcome(t *testing.T) {
	rt := counterRT()
	for round := 0; round < 200; round++ {
		o := NewObject(0)
		th := rt.Thread(0)
		w := th.newTx(false)
		if err := w.Write(o, round+1); err != nil {
			t.Fatal(err)
		}
		if !w.status.CompareAndSwap(int32(StatusActive), int32(StatusCommitting)) {
			t.Fatal("could not park in committing")
		}
		const helpers = 4
		results := make([]bool, helpers)
		var wg sync.WaitGroup
		for h := 0; h < helpers; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				results[h] = w.finishCommit(rt.TimeBase().Clock(h + 1))
			}(h)
		}
		wg.Wait()
		st := w.Status()
		if !st.Terminal() {
			t.Fatalf("round %d: non-terminal state %v after helping", round, st)
		}
		for h, r := range results {
			if r != (st == StatusCommitted) {
				t.Fatalf("round %d: helper %d observed %v, status %v", round, h, r, st)
			}
		}
		if st == StatusCommitted {
			if got := mustReadInt(t, rt, o); got != round+1 {
				t.Fatalf("round %d: value %d, want %d", round, got, round+1)
			}
		}
	}
}

// TestExternalAbortRaces fires abortExternal at transactions in every phase
// while the owner drives them forward; whatever the interleaving, the final
// state must be consistent: either the write landed exactly once or not at
// all, and the owner's Run result must match.
func TestExternalAbortRaces(t *testing.T) {
	rt := counterRT()
	o := NewObject(0)
	committed := 0
	for round := 0; round < 400; round++ {
		th := rt.Thread(0)
		victim := make(chan *Tx, 1)
		var sniper sync.WaitGroup
		sniper.Add(1)
		go func() {
			defer sniper.Done()
			w := <-victim
			w.abortExternal()
		}()
		err := th.Run(func(tx *Tx) error {
			select {
			case victim <- tx:
			default:
			}
			v, err := tx.Read(o)
			if err != nil {
				return err
			}
			return tx.Write(o, v.(int)+1)
		})
		sniper.Wait()
		if err != nil {
			t.Fatalf("round %d: Run should retry through external aborts, got %v", round, err)
		}
		committed++
		if got := mustReadInt(t, rt, o); got != committed {
			t.Fatalf("round %d: value %d, want %d (lost or doubled update)", round, got, committed)
		}
	}
}

// TestReadersDuringHistoryChurn hammers one object with commits (trimming
// the chain every settle) while read-only transactions walk the history
// concurrently; every read must return some committed value in range and
// never a torn or tentative one.
func TestReadersDuringHistoryChurn(t *testing.T) {
	rt := MustRuntime(Config{TimeBase: timebase.NewSharedCounter(), MaxVersions: 3})
	o := NewObject(0)
	var stop sync.WaitGroup
	done := make(chan struct{})
	stop.Add(1)
	go func() {
		defer stop.Done()
		th := rt.Thread(0)
		for i := 1; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := th.Run(func(tx *Tx) error { return tx.Write(o, i) }); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 1; r <= 3; r++ {
		readers.Add(1)
		go func(id int) {
			defer readers.Done()
			th := rt.Thread(id)
			last := 0
			for i := 0; i < 500; i++ {
				var got int
				if err := th.RunReadOnly(func(tx *Tx) error {
					v, err := tx.Read(o)
					if err != nil {
						return err
					}
					got = v.(int)
					return nil
				}); err != nil {
					t.Errorf("reader %d: %v", id, err)
					return
				}
				if got < last {
					t.Errorf("reader %d: time went backwards: %d after %d", id, got, last)
					return
				}
				last = got
			}
		}(r)
	}
	readers.Wait()
	close(done)
	stop.Wait()
}

// TestAbortIdempotentFromAllStates drives abort() against every reachable
// state and checks terminal states are never overwritten.
func TestAbortIdempotentFromAllStates(t *testing.T) {
	rt := counterRT()
	th := rt.Thread(0)

	active := th.newTx(false)
	active.abort()
	if active.Status() != StatusAborted {
		t.Errorf("abort(active) = %v", active.Status())
	}
	active.abort() // idempotent
	if active.Status() != StatusAborted {
		t.Errorf("double abort = %v", active.Status())
	}

	committing := th.newTx(false)
	committing.update = true
	committing.status.Store(int32(StatusCommitting))
	committing.abort()
	if committing.Status() != StatusAborted {
		t.Errorf("abort(committing) = %v", committing.Status())
	}

	committed := th.newTx(false)
	committed.status.Store(int32(StatusCommitted))
	committed.abort()
	if committed.Status() != StatusCommitted {
		t.Errorf("abort(committed) must not regress, got %v", committed.Status())
	}

	if committed.abortExternal() {
		t.Error("abortExternal on committed must fail")
	}
	parked := th.newTx(false)
	parked.status.Store(int32(StatusCommitting))
	if parked.abortExternal() {
		t.Error("abortExternal must not kill committing transactions (they are helped)")
	}
}

// TestContendedUpgradeStorm has every worker read all objects then upgrade
// one to a write — the read-to-write upgrade path under full contention.
func TestContendedUpgradeStorm(t *testing.T) {
	rt := counterRT()
	const nObjs, workers, per = 4, 4, 150
	objs := make([]*Object, nObjs)
	for i := range objs {
		objs[i] = NewObject(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.Thread(id)
			for i := 0; i < per; i++ {
				target := (id + i) % nObjs
				if err := th.Run(func(tx *Tx) error {
					sum := 0
					for _, o := range objs {
						v, err := tx.Read(o)
						if err != nil {
							return err
						}
						sum += v.(int)
					}
					v, err := tx.Read(objs[target])
					if err != nil {
						return err
					}
					_ = sum
					return tx.Write(objs[target], v.(int)+1)
				}); err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, o := range objs {
		total += mustReadInt(t, rt, o)
	}
	if total != workers*per {
		t.Errorf("total increments = %d, want %d", total, workers*per)
	}
}

// TestRunPropagatesNonAbortErrorsOnce ensures a failing body aborts cleanly
// without retrying.
func TestRunPropagatesNonAbortErrorsOnce(t *testing.T) {
	rt := counterRT()
	o := NewObject(0)
	th := rt.Thread(0)
	calls := 0
	boom := errors.New("boom")
	err := th.Run(func(tx *Tx) error {
		calls++
		if err := tx.Write(o, 1); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Errorf("body called %d times, want 1 (no retry on user error)", calls)
	}
	if s := th.Stats(); s.UserAborts != 1 {
		t.Errorf("UserAborts = %d, want 1", s.UserAborts)
	}
}
