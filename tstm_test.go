package tstm

import (
	"errors"
	"strings"
	"sync"
	"testing"

	_ "repro/internal/durable" // registers durable/*, which New must reject
	"repro/internal/engine"
)

// allRuntimes builds every registered lsa/ engine on eight nodes, keyed by
// its time-base suffix, plus the single-version ablation, so a new lsa/
// registration is covered here without an edit.
func allRuntimes(t *testing.T) map[string]*Runtime {
	t.Helper()
	rts := map[string]*Runtime{"1version": MustNew("", Options{MaxVersions: 1})}
	for _, name := range engine.Names() {
		if tb, ok := strings.CutPrefix(name, "lsa/"); ok {
			rts[tb] = MustNew(name, Options{Nodes: 8})
		}
	}
	if len(rts) < 2 {
		t.Fatalf("no lsa/ engines registered: %v", engine.Names())
	}
	return rts
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
	rt := MustNew("", Options{})
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
	rt := MustNew("lsa/ideal", Options{Nodes: 2})
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
	rt := MustNew("", Options{})
	v := NewVar(1)
	err := rt.Thread(0).AtomicReadOnly(func(tx *Tx) error {
		return v.Set(tx, 2)
	})
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("got %v, want ErrReadOnly", err)
	}
}

func TestUserErrorPropagates(t *testing.T) {
	rt := MustNew("", Options{})
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

// TestOptionValidation: bad options and engines that are not the LSA core
// fail New with an error naming the engine.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name   string
		engine string
		opt    Options
	}{
		{"negative nodes mmtimer", "lsa/mmtimer", Options{Nodes: -1}},
		{"negative nodes ideal", "lsa/ideal", Options{Nodes: -1}},
		{"negative nodes extsync", "lsa/extsync", Options{Nodes: -1}},
		{"negative deviation", "lsa/extsync", Options{Deviation: -1}},
		{"negative versions", "lsa/shared", Options{MaxVersions: -1}},
		{"norec", "norec", Options{}},
		{"durable norec", "durable/norec", Options{WALDir: t.TempDir()}},
		{"unknown", "no-such-stm", Options{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.engine, c.opt)
			if err == nil || !strings.Contains(err.Error(), `"`+c.engine+`"`) {
				t.Errorf("New(%q, %+v) = %v, want an error naming the engine", c.engine, c.opt, err)
			}
		})
	}
}

func TestTimeBaseName(t *testing.T) {
	if got := MustNew("", Options{}).TimeBaseName(); got != "SharedCounter" {
		t.Errorf("name = %q", got)
	}
	if got := MustNew("lsa/mmtimer", Options{Nodes: 4}).TimeBaseName(); got != "MMTimer" {
		t.Errorf("name = %q", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	rt := MustNew("", Options{})
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
	MustNew("", Options{MaxVersions: -3})
}
