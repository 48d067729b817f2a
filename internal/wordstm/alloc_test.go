package wordstm

// Allocation budget for the word engine's fast path: the attempt record is
// thread-private and reused, its logs keep their backing arrays, and a write
// set of ≤ smallWriteSet words is indexed by a linear scan — so a
// steady-state transfer allocates nothing.

import "testing"

func TestAllocBudget(t *testing.T) {
	s := newSTM(t, 64)
	const a, b Addr = 3, 40
	if err := s.SetInitial(a, 1000); err != nil {
		t.Fatal(err)
	}
	th := s.Thread(0)
	transfer := func(tx *Tx) error {
		x, err := tx.Load(a)
		if err != nil {
			return err
		}
		y, err := tx.Load(b)
		if err != nil {
			return err
		}
		if err := tx.Store(a, x-1); err != nil {
			return err
		}
		return tx.Store(b, y+1)
	}
	audit := func(tx *Tx) error {
		x, err := tx.Load(a)
		if err != nil {
			return err
		}
		y, err := tx.Load(b)
		if err == nil && x+y != 1000 {
			t.Errorf("audit saw %d", x+y)
		}
		return err
	}
	for _, tc := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"int transfer", 0, func() error { return th.Run(transfer) }},
		{"read-only audit", 0, func() error { return th.RunReadOnly(audit) }},
	} {
		f := func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		}
		f() // grow the logs once
		if got := testing.AllocsPerRun(200, f); got > tc.budget {
			t.Errorf("wordstm %s: %.1f allocs/run, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
