package core

import (
	"errors"
	"sync"
	"testing"
)

// TestWriterAbortsWaitedOutOwner pins the write-acquisition policy: a writer
// that finds an object owned by an active transaction backs off three rounds
// and then aborts the owner. Thread A acquires o and parks inside its
// closure; thread B's write of o must therefore abort A and commit, and A's
// next access must fail as an externally inflicted abort.
func TestWriterAbortsWaitedOutOwner(t *testing.T) {
	rt := counterRT()
	o := NewObject(0)
	thA, thB := rt.Thread(0), rt.Thread(1)
	parked, resume := make(chan struct{}), make(chan struct{})
	var resumedErr error
	var resumedCause AbortCause
	done := make(chan error)
	go func() {
		attempts := 0
		done <- thA.Run(func(tx *Tx) error {
			attempts++
			v, err := tx.Read(o)
			if err != nil {
				return err
			}
			if err := tx.Write(o, v.(int)+1); err != nil {
				return err
			}
			if attempts == 1 {
				close(parked)
				<-resume
				_, resumedErr = tx.Read(o)
				resumedCause = tx.cause
				return resumedErr
			}
			return nil
		})
	}()
	<-parked
	if err := thB.Run(func(tx *Tx) error { return tx.Write(o, 100) }); err != nil {
		t.Fatalf("B: %v", err)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("A: %v", err)
	}
	if !errors.Is(resumedErr, ErrAborted) || resumedCause != CauseNone {
		t.Errorf("A's access after B's commit = %v (cause %v), want ErrAborted inflicted from outside", resumedErr, resumedCause)
	}
	if a, b := thA.Stats(), thB.Stats(); a.AbortExternal != 1 || a.Aborts != 1 || b.EnemyAborts != 1 || b.Aborts != 0 {
		t.Errorf("A: %s enemy=%d; B: %s enemy=%d; want one external abort on A, one enemy abort by B",
			a, a.EnemyAborts, b, b.EnemyAborts)
	}
	if s := rt.Stats(); s.EnemyAborts != 1 || s.AbortExternal != 1 || s.Commits != 2 {
		t.Errorf("runtime stats %s enemy=%d, want 2 commits, 1 enemy abort, 1 external abort", s, s.EnemyAborts)
	}
	if got := mustReadInt(t, rt, o); got != 101 {
		t.Errorf("o = %d, want A's retry over B's commit: 101", got)
	}
}

// TestSerializableForbidsWriteSkew orchestrates the canonical write-skew
// anomaly: two transactions each read both accounts and, if the guard
// a+b ≥ 10 holds, debit their *own* account by 10 — disjoint write sets,
// intersecting read sets. Commit-time validation of the read set must keep
// a+b ≥ 0: the second committer finds the version it read superseded.
func TestSerializableForbidsWriteSkew(t *testing.T) {
	rt := counterRT()
	a, b := NewObject(5), NewObject(5)

	readDone := make(chan struct{})
	t2Done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := rt.Thread(0)
		attempt := 0
		if err := th.Run(func(tx *Tx) error {
			attempt++
			av, err := tx.Read(a)
			if err != nil {
				return err
			}
			bv, err := tx.Read(b)
			if err != nil {
				return err
			}
			if attempt == 1 {
				close(readDone)
				<-t2Done // T2 commits while our snapshot is held
			}
			if av.(int)+bv.(int) >= 10 {
				return tx.Write(a, av.(int)-10)
			}
			return nil
		}); err != nil {
			t.Errorf("T1: %v", err)
		}
	}()

	<-readDone
	th2 := rt.Thread(1)
	if err := th2.Run(func(tx *Tx) error {
		av, err := tx.Read(a)
		if err != nil {
			return err
		}
		bv, err := tx.Read(b)
		if err != nil {
			return err
		}
		if av.(int)+bv.(int) >= 10 {
			return tx.Write(b, bv.(int)-10)
		}
		return nil
	}); err != nil {
		t.Fatalf("T2: %v", err)
	}
	close(t2Done)
	wg.Wait()

	sum := 0
	if err := rt.Thread(2).RunReadOnly(func(tx *Tx) error {
		av, err := tx.Read(a)
		if err != nil {
			return err
		}
		bv, err := tx.Read(b)
		if err != nil {
			return err
		}
		sum = av.(int) + bv.(int)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum < 0 {
		t.Errorf("write skew committed: final sum %d", sum)
	}
}
