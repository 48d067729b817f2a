package core

// Allocation budgets for the transaction fast paths. These are the ratchet
// behind the -benchmem trend in the repo-root BenchmarkSmallTxAllocs and the
// gate's allocs_per_op_plus1: a regression that reintroduces per-access
// allocations (entry-slice growth, per-write version/locator nodes, a node
// per settle, the commit-timestamp box, per-supersession Timestamp boxes,
// payload boxing on the typed value lane) fails here deterministically
// instead of drifting in a bench snapshot.
//
// An attempt pays per transaction, not per access. Budget accounting:
//
//   - the Tx itself (1): embeds the first smallAccessSet entries and the
//     first smallWriteSet writer locators. It cannot be reused across
//     attempts (helpers may validate a frozen access set), so 1 is the floor
//     without a reclamation protocol.
//   - the version chunk (+1 for any transaction that writes): all of the
//     attempt's tentative versions, sized by the Thread's hint. Settling
//     promotes them in place and allocates nothing.
//   - the entry overflow (+1 above smallAccessSet objects) and the locator
//     overflow (+1 above smallWriteSet writes), each one slice sized by the
//     Thread's hints.
//
// So: read-only of any length 1 (a declared read-only transaction keeps no
// access set at all), 1- and 2-write updates 2, a 10-read-modify-write
// update 4.
//
// Values are written far outside the runtime's small-int interface cache
// (> 2⁴⁰) through the typed lane (ReadValue/WriteInt), so these budgets
// prove the unboxed int lane end to end: zero boxing allocations per int
// write on the hottest path.

import (
	"math/rand"
	"runtime"
	"testing"
)

// allocBudget asserts the steady-state allocations per run. It reports the
// measured value so a failure shows the regression size immediately.
func allocBudget(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	// Untimed warm rounds build thread-local state (clocks, the index map)
	// and let the chunk hints settle before AllocsPerRun's own warmup run.
	f()
	f()
	if got := testing.AllocsPerRun(200, f); got > budget {
		t.Errorf("%s: %.1f allocs/run, budget %.0f", name, got, budget)
	}
}

// big keeps every written value far outside the runtime's small-int cache,
// so any boxing on the path would show up as an allocation.
const big = int64(1) << 40

func TestAllocBudgetReadOnlySmall(t *testing.T) {
	rt := counterRT()
	a, b := NewObject(big+1), NewObject(big+2)
	th := rt.Thread(0)
	fn := func(tx *Tx) error {
		if _, _, err := tx.ReadInt(a); err != nil {
			return err
		}
		_, _, err := tx.ReadInt(b)
		return err
	}
	allocBudget(t, "core read-only 2 reads", 1, func() {
		if err := th.RunReadOnly(fn); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetUpdateOne(t *testing.T) {
	rt := counterRT()
	a := NewObject(big)
	th := rt.Thread(0)
	fn := func(tx *Tx) error {
		v, _, err := tx.ReadInt(a)
		if err != nil {
			return err
		}
		return tx.WriteInt(a, big+(v+1)%100)
	}
	allocBudget(t, "core 1-write update", 2, func() {
		if err := th.Run(fn); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetUpdateSmall(t *testing.T) {
	rt := counterRT()
	a, b := NewObject(big), NewObject(big)
	th := rt.Thread(0)
	bump := func(tx *Tx, o *Object) error {
		v, _, err := tx.ReadInt(o)
		if err != nil {
			return err
		}
		return tx.WriteInt(o, big+(v+1)%100)
	}
	fn := func(tx *Tx) error {
		if err := bump(tx, a); err != nil {
			return err
		}
		return bump(tx, b)
	}
	allocBudget(t, "core 2-write update", 2, func() {
		if err := th.Run(fn); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetUpdateTen(t *testing.T) {
	rt := counterRT()
	objs := make([]*Object, 10)
	for i := range objs {
		objs[i] = NewObject(big)
	}
	th := rt.Thread(0)
	fn := func(tx *Tx) error {
		for _, o := range objs {
			v, _, err := tx.ReadInt(o)
			if err != nil {
				return err
			}
			if err := tx.WriteInt(o, big+(v+1)%100); err != nil {
				return err
			}
		}
		return nil
	}
	allocBudget(t, "core 10-write update", 4, func() {
		if err := th.Run(fn); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetReadOnlyScan(t *testing.T) {
	rt := counterRT()
	objs := make([]*Object, 256)
	for i := range objs {
		objs[i] = NewObject(big + int64(i))
	}
	th := rt.Thread(0)
	fn := func(tx *Tx) error {
		for _, o := range objs {
			if _, _, err := tx.ReadInt(o); err != nil {
				return err
			}
		}
		return nil
	}
	allocBudget(t, "core read-only 256 reads", 1, func() {
		if err := th.RunReadOnly(fn); err != nil {
			t.Fatal(err)
		}
	})
}

// heapAfterGC returns the live heap: what a collection could not free.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHeapPlateau is the retention ratchet the allocation budgets cannot be:
// versions outlive the transaction that wrote them, so one pointer from a
// version to anything its writer held (the Tx, its access set, the
// successor's chunk) keeps the whole commit history reachable, and the live
// heap grows with the number of commits while every budget above still
// passes. Ten-write commits over 64 objects; the live heap after a
// collection must be flat between the second and the last fifth of the run.
// One goroutine, so -race adds nothing but a 30× longer run: CI runs it
// without.
//
// The "cold neighbour" case co-writes one object with the hot set once and
// never again: its version pins the chunk it was cut from for good, and the
// superseded versions in that chunk must not lead anywhere.
func TestHeapPlateau(t *testing.T) {
	commits := 2_000_000
	if testing.Short() {
		commits = 200_000
	}
	for _, tc := range []struct {
		name    string
		cold    bool
		commits int
	}{
		{"uniform", false, commits},
		{"cold neighbour", true, commits / 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := counterRT()
			objs := make([]*Object, 64)
			for i := range objs {
				objs[i] = NewObject(big)
			}
			th := rt.Thread(0)
			rng := rand.New(rand.NewSource(7))
			var pick [10]int
			fn := func(tx *Tx) error {
				for _, i := range pick {
					v, _, err := tx.ReadInt(objs[i])
					if err != nil {
						return err
					}
					if err := tx.WriteInt(objs[i], big+(v+1)%100); err != nil {
						return err
					}
				}
				return nil
			}
			hot := len(objs)
			if tc.cold {
				// One commit over objects 54..63, then 63 is never written
				// again while 54..62 stay in the hot set.
				for k := range pick {
					pick[k] = hot - 10 + k
				}
				if err := th.Run(fn); err != nil {
					t.Fatal(err)
				}
				hot--
			}
			perm := rng.Perm(hot)
			var fifths [5]uint64
			for f := range fifths {
				for c := 0; c < tc.commits/5; c++ {
					// Partial shuffle: ten distinct objects of the hot set.
					for k := range pick {
						j := k + rng.Intn(hot-k)
						perm[k], perm[j] = perm[j], perm[k]
						pick[k] = perm[k]
					}
					if err := th.Run(fn); err != nil {
						t.Fatal(err)
					}
				}
				fifths[f] = heapAfterGC()
			}
			// 10 % plus 64 KiB: which chunks the 256 live versions happen to
			// pin moves the ~200 KB live heap a few per cent either way; any
			// retention chain adds at least a version per commit, megabytes
			// between the two samples.
			second, last := fifths[1], fifths[4]
			if last > second+second/10+64<<10 {
				t.Errorf("live heap grew from %d B (second fifth) to %d B (last fifth) over %d commits: %v",
					second, last, tc.commits, fifths)
			}
		})
	}
}
