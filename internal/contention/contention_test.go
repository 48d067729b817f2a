package contention

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/timebase"
)

// fakeInfo is a canned TxInfo for unit-testing decision logic.
type fakeInfo struct {
	id      uint64
	start   timebase.Timestamp
	ops     int
	attempt int
}

func (f fakeInfo) ID() uint64                { return f.id }
func (f fakeInfo) Start() timebase.Timestamp { return f.start }
func (f fakeInfo) Ops() int                  { return f.ops }
func (f fakeInfo) Attempt() int              { return f.attempt }

var _ core.TxInfo = fakeInfo{}

func TestAggressiveAlwaysKills(t *testing.T) {
	m := Aggressive{}
	for n := 0; n < 20; n++ {
		if d := m.Resolve(fakeInfo{}, fakeInfo{}, n); d != core.AbortEnemy {
			t.Fatalf("round %d: %v, want abort-enemy", n, d)
		}
	}
}

func TestSuicideAlwaysYields(t *testing.T) {
	m := Suicide{}
	for n := 0; n < 20; n++ {
		if d := m.Resolve(fakeInfo{}, fakeInfo{}, n); d != core.AbortSelf {
			t.Fatalf("round %d: %v, want abort-self", n, d)
		}
	}
}

func TestPoliteEscalates(t *testing.T) {
	m := Polite{Rounds: 3}
	for n := 0; n < 3; n++ {
		if d := m.Resolve(fakeInfo{}, fakeInfo{}, n); d != core.Wait {
			t.Fatalf("round %d: %v, want wait", n, d)
		}
	}
	if d := m.Resolve(fakeInfo{}, fakeInfo{}, 3); d != core.AbortEnemy {
		t.Fatalf("round 3: %v, want abort-enemy", d)
	}
	// Default rounds.
	def := Polite{}
	if d := def.Resolve(fakeInfo{}, fakeInfo{}, 7); d != core.Wait {
		t.Errorf("default round 7: %v, want wait", d)
	}
	if d := def.Resolve(fakeInfo{}, fakeInfo{}, 8); d != core.AbortEnemy {
		t.Errorf("default round 8: %v, want abort-enemy", d)
	}
}

func TestKarmaRichKillsPoorWaits(t *testing.T) {
	m := Karma{}
	rich := fakeInfo{ops: 50}
	poor := fakeInfo{ops: 2}
	if d := m.Resolve(rich, poor, 0); d != core.AbortEnemy {
		t.Errorf("rich vs poor: %v, want abort-enemy", d)
	}
	if d := m.Resolve(poor, rich, 0); d != core.Wait {
		t.Errorf("poor vs rich round 0: %v, want wait", d)
	}
	if d := m.Resolve(poor, rich, 49); d != core.AbortEnemy {
		t.Errorf("poor vs rich round 49 (deficit 48 overcome): %v, want abort-enemy", d)
	}
}

func TestTimestampOldestWins(t *testing.T) {
	m := Timestamp{}
	old := fakeInfo{start: timebase.Exact(5)}
	young := fakeInfo{start: timebase.Exact(50)}
	if d := m.Resolve(old, young, 0); d != core.AbortEnemy {
		t.Errorf("old vs young: %v, want abort-enemy", d)
	}
	if d := m.Resolve(young, old, 0); d != core.Wait {
		t.Errorf("young vs old round 0: %v, want wait", d)
	}
	if d := m.Resolve(young, old, 4); d != core.AbortSelf {
		t.Errorf("young vs old round 4: %v, want abort-self", d)
	}
}

func TestNames(t *testing.T) {
	for _, m := range []core.ContentionManager{Aggressive{}, Suicide{}, Polite{}, Karma{}, Timestamp{}} {
		if m.Name() == "" {
			t.Errorf("%T: empty name", m)
		}
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]core.ContentionManager{
		"aggressive": Aggressive{}, "suicide": Suicide{}, "polite": Polite{},
		"karma": Karma{}, "timestamp": Timestamp{}, "bogus": nil,
	} {
		got, err := ByName(name)
		if got != want || (err != nil) != (want == nil) {
			t.Errorf("ByName(%q) = (%v, %v), want %v", name, got, err, want)
		}
	}
}

// TestManagersUnderRealContention runs every manager against a genuinely
// contended hot object and checks liveness and atomicity.
func TestManagersUnderRealContention(t *testing.T) {
	managers := []core.ContentionManager{Aggressive{}, Suicide{}, Polite{Rounds: 2}, Karma{}, Timestamp{}}
	for _, m := range managers {
		t.Run(m.Name(), func(t *testing.T) {
			rt := core.MustRuntime(core.Config{
				TimeBase: timebase.NewSharedCounter(),
				Manager:  m,
			})
			hot := core.NewObject(0)
			const workers, per = 4, 100
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := rt.Thread(id)
					for i := 0; i < per; i++ {
						if err := th.Run(func(tx *core.Tx) error {
							v, err := tx.Read(hot)
							if err != nil {
								return err
							}
							return tx.Write(hot, v.(int)+1)
						}); err != nil {
							t.Errorf("worker %d: %v", id, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			th := rt.Thread(99)
			if err := th.RunReadOnly(func(tx *core.Tx) error {
				v, err := tx.Read(hot)
				if err != nil {
					return err
				}
				if v.(int) != workers*per {
					t.Errorf("hot = %v, want %d", v, workers*per)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
