package rstmval

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
	if n := s.cc.Load(); n != 1 {
		t.Errorf("commit counter = %d, want 1", n)
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
	o.meta.Store(before | 1)
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
