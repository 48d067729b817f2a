package norec

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/val"
)

func TestReadInitialAndCommit(t *testing.T) {
	s := New()
	o := NewObject(41)
	th := s.Thread(0)
	if err := th.Run(func(tx *Tx) error {
		v, err := tx.Read(o)
		if err != nil {
			return err
		}
		return tx.Write(o, v.(int)+1)
	}); err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, s, o); got != 42 {
		t.Errorf("value = %d, want 42", got)
	}
	// One update commit bumps the sequence lock by exactly two.
	if seq := s.seq.Load(); seq != 2 {
		t.Errorf("sequence lock = %d, want 2", seq)
	}
}

func TestReadOwnWrite(t *testing.T) {
	s := New()
	o := NewObject(1)
	if err := s.Thread(0).Run(func(tx *Tx) error {
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
	// A read-only transaction must not move the sequence lock.
	if seq := s.seq.Load(); seq != 0 {
		t.Errorf("sequence lock = %d, want 0", seq)
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

// TestWriteSetPromotion drives one transaction past the linear-scan
// threshold and checks read-own-write stays correct across the promotion to
// the map index.
func TestWriteSetPromotion(t *testing.T) {
	s := New()
	const n = 3 * smallWriteSet
	objs := make([]*Object, n)
	for i := range objs {
		objs[i] = NewObject(0)
	}
	if err := s.Thread(0).Run(func(tx *Tx) error {
		for i, o := range objs {
			if err := tx.Write(o, i); err != nil {
				return err
			}
		}
		// Overwrite every entry and read each back through the index.
		for i, o := range objs {
			if err := tx.Write(o, i*10); err != nil {
				return err
			}
			v, err := tx.Read(o)
			if err != nil {
				return err
			}
			if v.(int) != i*10 {
				t.Errorf("objs[%d] = %v, want %d", i, v, i*10)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, o := range objs {
		if got := readInt(t, s, o); got != i*10 {
			t.Errorf("committed objs[%d] = %d, want %d", i, got, i*10)
		}
	}
}

// TestValueBasedValidationToleratesSilentRestore: a concurrent commit that
// rewrites the same value must not abort a reader whose log holds that
// value — NOrec's value-based tolerance.
func TestValueBasedValidationTolerates(t *testing.T) {
	s := New()
	a, b := NewObject(10), NewObject(20)
	tx := &Tx{stm: s, snapshot: waitEven(&s.seq)}
	if _, err := tx.Read(a); err != nil {
		t.Fatal(err)
	}
	// Another thread commits the same value into a (silent restore) and a
	// new value into b.
	if err := s.Thread(1).Run(func(tx *Tx) error {
		if err := tx.Write(a, 10); err != nil {
			return err
		}
		return tx.Write(b, 21)
	}); err != nil {
		t.Fatal(err)
	}
	// The reader's next read notices the bump and revalidates: the logged
	// value of a is unchanged, so the transaction survives and sees the new
	// b.
	v, err := tx.Read(b)
	if err != nil {
		t.Fatalf("silent restore must not abort the reader: %v", err)
	}
	if v.(int) != 21 {
		t.Errorf("b = %v, want 21", v)
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

func TestValueEquality(t *testing.T) {
	cases := []struct {
		a, b any
		want bool
	}{
		{1, 1, true},
		{1, 2, false},
		{nil, nil, true},
		{1, nil, false},
		{"x", "x", true},
		{1, "1", false},
		{[]int{1}, []int{1}, false}, // uncomparable: conservatively unequal
		// Statically comparable struct holding an uncomparable dynamic
		// value: the == panics and must be absorbed as "changed".
		{struct{ v any }{[]int{1}}, struct{ v any }{[]int{1}}, false},
		{struct{ v any }{1}, struct{ v any }{1}, true},
	}
	for _, c := range cases {
		if got := val.OfAny(c.a).Equal(val.OfAny(c.b)); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
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
