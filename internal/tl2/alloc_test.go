package tl2

// Allocation budgets for the TL2 fast paths — the ratchet behind the
// repo-root BenchmarkSmallTxAllocs trend. The Thread recycles its one Tx
// (read/write logs, promoted index) across attempts, nothing an attempt
// builds escapes it, and with the typed value lane the write-back of a
// numeric payload lands in the cell's atomic word, so the steady-state
// costs are:
//
//   - read-only, small read set: 0 — TL2 read-only transactions keep no
//     read set at all.
//   - update, 2 int writes: 0 — commit stores the new version into each
//     object's integer lock word and the numeric lane into its cell.
//     Escape-hatch (boxed) payloads would add one snapshot pointer per
//     written object.
//
// Values are written far outside the runtime's small-int interface cache
// (> 2⁴⁰) through the typed lane, so these budgets prove zero boxing
// allocations per int write.

import (
	"testing"

	"repro/internal/val"
)

func allocBudget(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	f() // warm the recycled logs before AllocsPerRun's own warmup
	if got := testing.AllocsPerRun(200, f); got > budget {
		t.Errorf("%s: %.1f allocs/run, budget %.0f", name, got, budget)
	}
}

const big = int64(1) << 40

func TestAllocBudgetReadOnlySmall(t *testing.T) {
	s := New()
	a, b := NewObject(big+1), NewObject(big+2)
	th := s.Thread(0)
	fn := func(tx *Tx) error {
		if _, err := tx.ReadValue(a); err != nil {
			return err
		}
		_, err := tx.ReadValue(b)
		return err
	}
	allocBudget(t, "tl2 read-only 2 reads", 0, func() {
		if err := th.RunReadOnly(fn); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetUpdateSmall(t *testing.T) {
	s := New()
	a, b := NewObject(big), NewObject(big)
	th := s.Thread(0)
	bump := func(tx *Tx, o *Object) error {
		v, err := tx.ReadValue(o)
		if err != nil {
			return err
		}
		n, _ := v.AsInt64()
		return tx.WriteValue(o, val.OfInt(int(big+(n+1)%100)))
	}
	fn := func(tx *Tx) error {
		if err := bump(tx, a); err != nil {
			return err
		}
		return bump(tx, b)
	}
	allocBudget(t, "tl2 2-write update", 0, func() {
		if err := th.Run(fn); err != nil {
			t.Fatal(err)
		}
	})
}
