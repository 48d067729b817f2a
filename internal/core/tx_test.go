package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/abort"
	"repro/internal/hwclock"
	"repro/internal/timebase"
)

// testBases returns a fresh runtime constructor per time base so every
// engine test runs against counters, perfect clocks, and deviating clocks.
func testBases(t *testing.T) map[string]func(cfg Config) *Runtime {
	t.Helper()
	return map[string]func(cfg Config) *Runtime{
		"counter": func(cfg Config) *Runtime {
			cfg.TimeBase = timebase.NewSharedCounter()
			return MustRuntime(cfg)
		},
		"tl2counter": func(cfg Config) *Runtime {
			cfg.TimeBase = timebase.NewTL2Counter()
			return MustRuntime(cfg)
		},
		"perfect": func(cfg Config) *Runtime {
			cfg.TimeBase = timebase.NewPerfectClock(hwclock.New(hwclock.IdealConfig(8)))
			return MustRuntime(cfg)
		},
		"extsync": func(cfg Config) *Runtime {
			dev := hwclock.New(hwclock.Config{
				TickHz: 1_000_000_000, Nodes: 8, MaxOffsetTicks: 2000, JitterTicks: 100, Seed: 17,
			})
			ec, err := timebase.NewExtSyncClock(dev, dev.Config().MaxErrorTicks())
			if err != nil {
				t.Fatal(err)
			}
			cfg.TimeBase = ec
			return MustRuntime(cfg)
		},
	}
}

func forAllBases(t *testing.T, cfg Config, fn func(t *testing.T, rt *Runtime)) {
	for name, mk := range testBases(t) {
		t.Run(name, func(t *testing.T) {
			fn(t, mk(cfg))
		})
	}
}

func TestReadInitialValue(t *testing.T) {
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		o := NewObject(41)
		th := rt.Thread(0)
		err := th.Run(func(tx *Tx) error {
			v, err := tx.Read(o)
			if err != nil {
				return err
			}
			if v.(int) != 41 {
				t.Errorf("read %v, want 41", v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestWriteThenReadBack(t *testing.T) {
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		o := NewObject(0)
		th := rt.Thread(0)
		err := th.Run(func(tx *Tx) error {
			if err := tx.Write(o, 7); err != nil {
				return err
			}
			v, err := tx.Read(o)
			if err != nil {
				return err
			}
			if v.(int) != 7 {
				t.Errorf("read-own-write = %v, want 7", v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Committed value visible to a later transaction.
		err = th.Run(func(tx *Tx) error {
			v, err := tx.Read(o)
			if err != nil {
				return err
			}
			if v.(int) != 7 {
				t.Errorf("post-commit read = %v, want 7", v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestReadThenWriteUpgrade(t *testing.T) {
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		o := NewObject(10)
		th := rt.Thread(0)
		err := th.Run(func(tx *Tx) error {
			v, err := tx.Read(o)
			if err != nil {
				return err
			}
			if err := tx.Write(o, v.(int)+1); err != nil {
				return err
			}
			v, err = tx.Read(o)
			if err != nil {
				return err
			}
			if v.(int) != 11 {
				t.Errorf("after upgrade read = %v, want 11", v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestWriteTwiceLastWins(t *testing.T) {
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		o := NewObject(0)
		th := rt.Thread(0)
		if err := th.Run(func(tx *Tx) error {
			if err := tx.Write(o, 1); err != nil {
				return err
			}
			return tx.Write(o, 2)
		}); err != nil {
			t.Fatal(err)
		}
		if got := mustReadInt(t, rt, o); got != 2 {
			t.Errorf("value = %d, want 2", got)
		}
	})
}

func TestAbortDiscardsWrites(t *testing.T) {
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		o := NewObject(5)
		th := rt.Thread(0)
		sentinel := errors.New("rollback")
		err := th.Run(func(tx *Tx) error {
			if err := tx.Write(o, 99); err != nil {
				return err
			}
			return sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("Run = %v, want sentinel", err)
		}
		if got := mustReadInt(t, rt, o); got != 5 {
			t.Errorf("value after rollback = %d, want 5", got)
		}
	})
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		o := NewObject(1)
		th := rt.Thread(0)
		err := th.RunReadOnly(func(tx *Tx) error {
			return tx.Write(o, 2)
		})
		if !errors.Is(err, ErrReadOnly) {
			t.Fatalf("write in read-only tx = %v, want ErrReadOnly", err)
		}
		if got := mustReadInt(t, rt, o); got != 1 {
			t.Errorf("value = %d, want 1", got)
		}
	})
}

func TestSequentialCounterIncrements(t *testing.T) {
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		o := NewObject(0)
		th := rt.Thread(0)
		const n = 100
		for i := 0; i < n; i++ {
			if err := th.Run(func(tx *Tx) error {
				v, err := tx.Read(o)
				if err != nil {
					return err
				}
				return tx.Write(o, v.(int)+1)
			}); err != nil {
				t.Fatal(err)
			}
		}
		if got := mustReadInt(t, rt, o); got != n {
			t.Errorf("counter = %d, want %d", got, n)
		}
		if s := rt.Stats(); s.Commits != n+1 {
			t.Errorf("commits = %d, want %d", s.Commits, n+1)
		}
	})
}

func TestConcurrentIncrementsAreAtomic(t *testing.T) {
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		o := NewObject(0)
		const workers, per = 8, 200
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				th := rt.Thread(id)
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
		if got := mustReadInt(t, rt, o); got != workers*per {
			t.Errorf("counter = %d, want %d (lost updates!)", got, workers*per)
		}
	})
}

// TestBankConservation is the central consistency property: concurrent
// transfers must never let any transaction — update or read-only — observe
// a total that differs from the invariant.
func TestBankConservation(t *testing.T) {
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		const accounts, initial = 16, 1000
		const workers, per = 6, 150
		objs := make([]*Object, accounts)
		for i := range objs {
			objs[i] = NewObject(initial)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				th := rt.Thread(id)
				for i := 0; i < per; i++ {
					from, to := (id+i)%accounts, (id+i*7+1)%accounts
					if from == to {
						to = (to + 1) % accounts
					}
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
						t.Errorf("transfer: %v", err)
						return
					}
					// Interleave read-only audits that must always see the
					// conserved total.
					if i%10 == 0 {
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
								t.Errorf("audit saw total %d, want %d", sum, accounts*initial)
							}
							return nil
						}); err != nil {
							t.Errorf("audit: %v", err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		total := 0
		th := rt.Thread(100)
		if err := th.RunReadOnly(func(tx *Tx) error {
			total = 0
			for _, o := range objs {
				v, err := tx.Read(o)
				if err != nil {
					return err
				}
				total += v.(int)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if total != accounts*initial {
			t.Fatalf("final total = %d, want %d", total, accounts*initial)
		}
	})
}

// TestSnapshotNeverTearsPair verifies that two objects always updated
// together are never observed out of sync — even mid-flight, even by
// update transactions.
func TestSnapshotNeverTearsPair(t *testing.T) {
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		a, b := NewObject(0), NewObject(0)
		stop := make(chan struct{})
		var writer, readers sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			th := rt.Thread(0)
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
		for w := 1; w <= 3; w++ {
			readers.Add(1)
			go func(id int) {
				defer readers.Done()
				th := rt.Thread(id)
				for i := 0; i < 300; i++ {
					ro := i%2 == 0
					check := func(tx *Tx) error {
						av, err := tx.Read(a)
						if err != nil {
							return err
						}
						bv, err := tx.Read(b)
						if err != nil {
							return err
						}
						if av.(int)+bv.(int) != 0 {
							t.Errorf("torn snapshot: a=%d b=%d", av, bv)
						}
						return nil
					}
					var err error
					if ro {
						err = th.RunReadOnly(check)
					} else {
						err = th.Run(check)
					}
					if err != nil {
						t.Errorf("reader: %v", err)
						return
					}
				}
			}(w)
		}
		readers.Wait()
		close(stop)
		writer.Wait()
	})
}

func TestWriteWriteConflictResolved(t *testing.T) {
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		o := NewObject(0)
		const workers, per = 4, 100
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				th := rt.Thread(id)
				for i := 0; i < per; i++ {
					if err := th.Run(func(tx *Tx) error {
						return tx.Write(o, id*1000+i)
					}); err != nil {
						t.Errorf("worker %d: %v", id, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		s := rt.Stats()
		if s.Commits != workers*per {
			t.Errorf("commits = %d, want %d", s.Commits, workers*per)
		}
	})
}

func TestTxHandleAfterCompletion(t *testing.T) {
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		o := NewObject(0)
		th := rt.Thread(0)
		var leaked *Tx
		if err := th.Run(func(tx *Tx) error {
			leaked = tx
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := leaked.Read(o); !errors.Is(err, ErrNotActive) {
			t.Errorf("Read on committed tx = %v, want ErrNotActive", err)
		}
		if err := leaked.Write(o, 1); !errors.Is(err, ErrNotActive) {
			t.Errorf("Write on committed tx = %v, want ErrNotActive", err)
		}
	})
}

func TestStatusAndCauseStrings(t *testing.T) {
	for s, want := range map[Status]string{
		StatusActive: "active", StatusCommitting: "committing",
		StatusCommitted: "committed", StatusAborted: "aborted", Status(99): "invalid",
	} {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, got, want)
		}
	}
	for c, want := range map[AbortCause]string{
		CauseNone: "none", CauseSnapshot: "snapshot", CauseValidation: "validation",
		CauseExternal: "external", AbortCause(99): "invalid",
	} {
		if got := c.String(); got != want {
			t.Errorf("AbortCause(%d).String() = %q, want %q", c, got, want)
		}
	}
}

func TestRuntimeConfigValidation(t *testing.T) {
	if _, err := NewRuntime(Config{}); err == nil {
		t.Error("missing time base must be rejected")
	}
	if _, err := NewRuntime(Config{TimeBase: timebase.NewSharedCounter(), MaxVersions: -1}); err == nil {
		t.Error("negative MaxVersions must be rejected")
	}
	rt, err := NewRuntime(Config{TimeBase: timebase.NewSharedCounter()})
	if err != nil {
		t.Fatal(err)
	}
	if rt.MaxVersions() != DefaultMaxVersions {
		t.Errorf("default MaxVersions = %d, want %d", rt.MaxVersions(), DefaultMaxVersions)
	}
}

func TestStatsString(t *testing.T) {
	s := abort.Stats{Commits: 3, Aborts: 1, AbortSnapshot: 1}
	if s.String() == "" {
		t.Error("empty stats string")
	}
	if got := s.AbortRate(); got != 0.25 {
		t.Errorf("AbortRate = %v, want 0.25", got)
	}
	if got := (abort.Stats{}).AbortRate(); got != 0 {
		t.Errorf("zero AbortRate = %v, want 0", got)
	}
}

// mustReadInt reads an int out of o in a fresh read-only transaction.
func mustReadInt(t *testing.T, rt *Runtime, o *Object) int {
	t.Helper()
	th := rt.Thread(999)
	var out int
	if err := th.RunReadOnly(func(tx *Tx) error {
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

// TestSingleVersionReadOnlyMayAbortButStaysConsistent pins down the §4.3
// configuration: with MaxVersions=1 read-only transactions lose their
// abort-freedom but never their consistency.
func TestSingleVersionStaysConsistent(t *testing.T) {
	forAllBases(t, Config{MaxVersions: 1}, func(t *testing.T, rt *Runtime) {
		a, b := NewObject(0), NewObject(0)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.Thread(0)
			for i := 1; i <= 400; i++ {
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
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.Thread(1)
			for i := 0; i < 400; i++ {
				if err := th.Run(func(tx *Tx) error {
					av, err := tx.Read(a)
					if err != nil {
						return err
					}
					bv, err := tx.Read(b)
					if err != nil {
						return err
					}
					if av.(int)+bv.(int) != 0 {
						t.Errorf("torn read under MaxVersions=1: %d/%d", av, bv)
					}
					return nil
				}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
		wg.Wait()
	})
}

func TestManyObjectsDisjointWriters(t *testing.T) {
	// The Figure 2 workload in miniature: disjoint updates must all commit
	// with no writer ever aborting another.
	forAllBases(t, Config{}, func(t *testing.T, rt *Runtime) {
		const workers, perWorker, objsEach = 4, 50, 10
		objs := make([][]*Object, workers)
		for w := range objs {
			objs[w] = make([]*Object, objsEach)
			for i := range objs[w] {
				objs[w][i] = NewObject(0)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				th := rt.Thread(id)
				for i := 0; i < perWorker; i++ {
					if err := th.Run(func(tx *Tx) error {
						for _, o := range objs[id] {
							v, err := tx.Read(o)
							if err != nil {
								return err
							}
							if err := tx.Write(o, v.(int)+1); err != nil {
								return err
							}
						}
						return nil
					}); err != nil {
						t.Errorf("worker %d: %v", id, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		s := rt.Stats()
		if s.EnemyAborts != 0 || s.AbortExternal != 0 {
			t.Errorf("disjoint workload saw conflicts: %s", s.String())
		}
		for w := range objs {
			for i, o := range objs[w] {
				if got := mustReadInt(t, rt, o); got != perWorker {
					t.Errorf("objs[%d][%d] = %d, want %d", w, i, got, perWorker)
				}
			}
		}
	})
}

func TestExample(t *testing.T) {
	// Smoke-test the documented usage pattern end to end.
	rt := MustRuntime(Config{TimeBase: timebase.NewSharedCounter()})
	th := rt.Thread(0)
	x, y := NewObject("left"), NewObject("right")
	if err := th.Run(func(tx *Tx) error {
		xv, err := tx.Read(x)
		if err != nil {
			return err
		}
		yv, err := tx.Read(y)
		if err != nil {
			return err
		}
		if err := tx.Write(x, yv); err != nil {
			return err
		}
		return tx.Write(y, xv)
	}); err != nil {
		t.Fatal(err)
	}
	want := map[*Object]string{x: "right", y: "left"}
	for o, w := range want {
		if err := th.RunReadOnly(func(tx *Tx) error {
			v, err := tx.Read(o)
			if err != nil {
				return err
			}
			if v.(string) != w {
				return fmt.Errorf("swap: got %v, want %v", v, w)
			}
			return nil
		}); err != nil {
			t.Error(err)
		}
	}
}
