package tl2

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

func TestReadInitial(t *testing.T) {
	s := New()
	o := NewObject(42)
	th := s.Thread(0)
	if err := th.RunReadOnly(func(tx *Tx) error {
		v, err := tx.Read(o)
		if err != nil {
			return err
		}
		if v.(int) != 42 {
			t.Errorf("read %v, want 42", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCommitRead(t *testing.T) {
	s := New()
	o := NewObject(0)
	th := s.Thread(0)
	if err := th.Run(func(tx *Tx) error {
		return tx.Write(o, 7)
	}); err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, s, o); got != 7 {
		t.Errorf("value = %d, want 7", got)
	}
	// The version clock starts at 0; one update commit advances it once.
	if now := s.clock.Load(); now != 1 {
		t.Errorf("version clock = %d, want 1", now)
	}
}

func TestReadOwnWrite(t *testing.T) {
	s := New()
	o := NewObject(1)
	th := s.Thread(0)
	if err := th.Run(func(tx *Tx) error {
		if err := tx.Write(o, 5); err != nil {
			return err
		}
		v, err := tx.Read(o)
		if err != nil {
			return err
		}
		if v.(int) != 5 {
			t.Errorf("read-own-write = %v, want 5", v)
		}
		return tx.Write(o, 6)
	}); err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, s, o); got != 6 {
		t.Errorf("value = %d, want 6", got)
	}
}

func TestReadOnlyRejectsWrite(t *testing.T) {
	s := New()
	o := NewObject(1)
	err := s.Thread(0).RunReadOnly(func(tx *Tx) error { return tx.Write(o, 2) })
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("got %v, want ErrReadOnly", err)
	}
}

func TestUserErrorRollsBack(t *testing.T) {
	s := New()
	o := NewObject(3)
	boom := errors.New("boom")
	err := s.Thread(0).Run(func(tx *Tx) error {
		if err := tx.Write(o, 9); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if got := readInt(t, s, o); got != 3 {
		t.Errorf("value = %d, want 3", got)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	s := New()
	o := NewObject(0)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := s.Thread(id)
			for i := 0; i < per; i++ {
				if err := th.Run(func(tx *Tx) error {
					v, err := tx.Read(o)
					if err != nil {
						return err
					}
					return tx.Write(o, v.(int)+1)
				}); err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := readInt(t, s, o); got != workers*per {
		t.Errorf("counter = %d, want %d (lost updates)", got, workers*per)
	}
}

func TestSnapshotConsistencyPair(t *testing.T) {
	s := New()
	a, b := NewObject(0), NewObject(0)
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		th := s.Thread(0)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := th.Run(func(tx *Tx) error {
				if err := tx.Write(a, i); err != nil {
					return err
				}
				return tx.Write(b, -i)
			}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(id int) {
			defer readers.Done()
			th := s.Thread(id + 1)
			for i := 0; i < 300; i++ {
				if err := th.RunReadOnly(func(tx *Tx) error {
					av, err := tx.Read(a)
					if err != nil {
						return err
					}
					bv, err := tx.Read(b)
					if err != nil {
						return err
					}
					if av.(int)+bv.(int) != 0 {
						t.Errorf("torn read: %d/%d", av, bv)
					}
					return nil
				}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

func TestBankConservation(t *testing.T) {
	s := New()
	const n, initial = 8, 100
	objs := make([]*Object, n)
	for i := range objs {
		objs[i] = NewObject(initial)
	}
	const workers, per = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := s.Thread(id)
			for i := 0; i < per; i++ {
				from, to := (id+i)%n, (id+i+1)%n
				if err := th.Run(func(tx *Tx) error {
					fv, err := tx.Read(objs[from])
					if err != nil {
						return err
					}
					tv, err := tx.Read(objs[to])
					if err != nil {
						return err
					}
					if err := tx.Write(objs[from], fv.(int)-1); err != nil {
						return err
					}
					return tx.Write(objs[to], tv.(int)+1)
				}); err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	sum := 0
	if err := s.Thread(99).RunReadOnly(func(tx *Tx) error {
		sum = 0
		for _, o := range objs {
			v, err := tx.Read(o)
			if err != nil {
				return err
			}
			sum += v.(int)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != n*initial {
		t.Errorf("total = %d, want %d", sum, n*initial)
	}
}

// TestExactSuccessor pins TL2's validation short cut to its one safe case:
// an update whose write version is rv+1 skips read-set validation, so one
// whose write version is not must validate — here a concurrent commit
// overwrites an object the first attempt read, making that attempt's write
// version rv+2, and commit-time validation has to abort it.
func TestExactSuccessor(t *testing.T) {
	s := New()
	a, b := NewObject(0), NewObject(0)
	th := s.Thread(0)
	attempts := 0
	if err := th.Run(func(tx *Tx) error {
		attempts++
		if _, err := tx.Read(a); err != nil {
			return err
		}
		if attempts == 1 {
			if err := s.Thread(1).Run(func(tx *Tx) error { return tx.Write(a, 1) }); err != nil {
				return err
			}
		}
		return tx.Write(b, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2 (the stale first attempt must abort)", attempts)
	}
	if got := th.Stats(); got.AbortValidation != 1 || got.Aborts != 1 {
		t.Errorf("aborts = %d (%d validation), want exactly one validation abort", got.Aborts, got.AbortValidation)
	}
	// Uncontended, the write version is rv+1 and the short cut commits the
	// first attempt.
	attempts = 0
	if err := th.Run(func(tx *Tx) error {
		attempts++
		if _, err := tx.Read(a); err != nil {
			return err
		}
		return tx.Write(b, 2)
	}); err != nil || attempts != 1 {
		t.Errorf("uncontended update: %v after %d attempts, want nil after 1", err, attempts)
	}
}

// TestFailedLockRetryCommits locks an object by hand so a transaction's
// phase-1 try-lock aborts at least once, then releases it; the retry must
// commit and install a fresh, later, unlocked version word.
func TestFailedLockRetryCommits(t *testing.T) {
	s := New()
	o := NewObject(1)
	before := o.meta.Load()
	o.meta.Store(before | lockBit)
	done := make(chan error, 1)
	go func() {
		done <- s.Thread(0).Run(func(tx *Tx) error { return tx.Write(o, 2) })
	}()
	o.meta.Store(before)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	after := o.meta.Load()
	if after&lockBit != 0 {
		t.Error("object left locked after commit")
	}
	if after>>1 <= before>>1 {
		t.Error("commit did not install a later version")
	}
	if got := readInt(t, s, o); got != 2 {
		t.Errorf("value = %d, want 2", got)
	}
}

func readInt(t *testing.T, s *STM, o *Object) int {
	t.Helper()
	var out int
	if err := s.Thread(99).RunReadOnly(func(tx *Tx) error {
		v, err := tx.Read(o)
		if err != nil {
			return err
		}
		out = v.(int)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLockedReadYields pins the retry loop's contention policy: a read that
// finds a locked word aborts, and the retry must yield so the lock holder
// can run. On one P the holder (here: the goroutine that unlocks) gets no
// CPU until the reader yields, so a loop that retried at once would spin
// until asynchronous preemption, thousands of attempts later.
func TestLockedReadYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := New()
	o := NewObject(7)
	before := o.meta.Load()
	o.meta.Store(before | lockBit)
	go o.meta.Store(before)
	attempts := 0
	if err := s.Thread(0).Run(func(tx *Tx) error {
		attempts++
		_, err := tx.Read(o)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if attempts > 3 {
		t.Errorf("read of a locked word took %d attempts, want <= 3", attempts)
	}
}
