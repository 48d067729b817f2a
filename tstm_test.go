package tstm

import (
	"errors"
	"sync"
	"testing"
)

func allRuntimes(t *testing.T) map[string]*Runtime {
	t.Helper()
	return map[string]*Runtime{
		"counter":  MustNew(WithSharedCounter()),
		"tl2":      MustNew(WithTL2Counter()),
		"sharded":  MustNew(WithShardedCounter(8, 0)),
		"ideal":    MustNew(WithIdealClock(8)),
		"extsync":  MustNew(WithExtSyncClocks(8, 1000)),
		"mmtimer":  MustNew(WithMMTimer(8)),
		"1version": MustNew(WithSharedCounter(), WithMaxVersions(1)),
	}
}

func TestVarGetSet(t *testing.T) {
	for name, rt := range allRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			v := NewVar("hello")
			th := rt.Thread(0)
			if err := th.Atomic(func(tx *Tx) error {
				s, err := v.Get(tx)
				if err != nil {
					return err
				}
				return v.Set(tx, s+" world")
			}); err != nil {
				t.Fatal(err)
			}
			var got string
			if err := th.AtomicReadOnly(func(tx *Tx) error {
				s, err := v.Get(tx)
				got = s
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if got != "hello world" {
				t.Errorf("got %q", got)
			}
		})
	}
}

func TestVarUpdate(t *testing.T) {
	rt := MustNew()
	v := NewVar(10)
	th := rt.Thread(0)
	if err := th.Atomic(func(tx *Tx) error {
		return v.Update(tx, func(x int) int { return x * 3 })
	}); err != nil {
		t.Fatal(err)
	}
	var got int
	if err := th.AtomicReadOnly(func(tx *Tx) error {
		x, err := v.Get(tx)
		got = x
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != 30 {
		t.Errorf("Update result = %d, want 30", got)
	}
}

func TestTypedStructVar(t *testing.T) {
	type point struct{ X, Y int }
	rt := MustNew(WithIdealClock(2))
	v := NewVar(point{1, 2})
	th := rt.Thread(0)
	if err := th.Atomic(func(tx *Tx) error {
		p, err := v.Get(tx)
		if err != nil {
			return err
		}
		p.X += 10
		return v.Set(tx, p)
	}); err != nil {
		t.Fatal(err)
	}
	if err := th.AtomicReadOnly(func(tx *Tx) error {
		p, err := v.Get(tx)
		if err != nil {
			return err
		}
		if p != (point{11, 2}) {
			t.Errorf("point = %+v", p)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTransfersAllBases(t *testing.T) {
	for name, rt := range allRuntimes(t) {
		t.Run(name, func(t *testing.T) {
			const accounts, initial, workers, per = 8, 100, 4, 80
			vars := make([]*Var[int], accounts)
			for i := range vars {
				vars[i] = NewVar(initial)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := rt.Thread(id)
					for i := 0; i < per; i++ {
						from := (id*31 + i) % accounts
						to := (from + 1 + i%3) % accounts
						if from == to {
							continue
						}
						if err := th.Atomic(func(tx *Tx) error {
							fb, err := vars[from].Get(tx)
							if err != nil {
								return err
							}
							tb, err := vars[to].Get(tx)
							if err != nil {
								return err
							}
							if err := vars[from].Set(tx, fb-5); err != nil {
								return err
							}
							return vars[to].Set(tx, tb+5)
						}); err != nil {
							t.Errorf("worker %d: %v", id, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			th := rt.Thread(50)
			sum := 0
			if err := th.AtomicReadOnly(func(tx *Tx) error {
				sum = 0
				for _, v := range vars {
					x, err := v.Get(tx)
					if err != nil {
						return err
					}
					sum += x
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if sum != accounts*initial {
				t.Errorf("total = %d, want %d", sum, accounts*initial)
			}
		})
	}
}

func TestSetInReadOnlyFails(t *testing.T) {
	rt := MustNew()
	v := NewVar(1)
	err := rt.Thread(0).AtomicReadOnly(func(tx *Tx) error {
		return v.Set(tx, 2)
	})
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("got %v, want ErrReadOnly", err)
	}
}

func TestUserErrorPropagates(t *testing.T) {
	rt := MustNew()
	v := NewVar(1)
	boom := errors.New("boom")
	err := rt.Thread(0).Atomic(func(tx *Tx) error {
		if err := v.Set(tx, 99); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	var got int
	if err := rt.Thread(1).AtomicReadOnly(func(tx *Tx) error {
		x, err := v.Get(tx)
		got = x
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("value = %d, want rollback to 1", got)
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"zero nodes mmtimer", []Option{WithMMTimer(0)}},
		{"zero shards", []Option{WithShardedCounter(0, 0)}},
		{"zero nodes ideal", []Option{WithIdealClock(0)}},
		{"zero nodes extsync", []Option{WithExtSyncClocks(0, 10)}},
		{"negative offset", []Option{WithExtSyncClocks(2, -1)}},
		{"zero versions", []Option{WithMaxVersions(0)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.opts...); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestTimeBaseName(t *testing.T) {
	if got := MustNew(WithSharedCounter()).TimeBaseName(); got != "SharedCounter" {
		t.Errorf("name = %q", got)
	}
	if got := MustNew(WithMMTimer(4)).TimeBaseName(); got != "MMTimer" {
		t.Errorf("name = %q", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	rt := MustNew()
	v := NewVar(0)
	th := rt.Thread(0)
	for i := 0; i < 10; i++ {
		if err := th.Atomic(func(tx *Tx) error {
			return v.Update(tx, func(x int) int { return x + 1 })
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s := rt.Stats(); s.Commits != 10 {
		t.Errorf("commits = %d, want 10", s.Commits)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad option must panic")
		}
	}()
	MustNew(WithMaxVersions(-3))
}
