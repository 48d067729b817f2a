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
//   - the attempt record (0 in steady state): a Tx with room for
//     smallAccessSet entries and smallWriteSet writer locators inline. An
//     update attempt's record may have been published through a locator and
//     handed to helpers, so its owner reuses it only once no locator names it
//     and after an epoch grace period; a thread allocates records until it
//     has retired enough to cycle through. A declared read-only attempt is
//     reachable from its own thread only, so every one of them runs in the
//     Thread's one record.
//   - the tentative versions (0 in steady state): versions outlive the
//     record, so they cannot ride in it; they are cut from a per-thread
//     chunk sized by the Thread's hint. Settling promotes them in place and
//     allocates nothing. A version is reused by the thread that wrote it,
//     once a settle of that thread's own has cut it off its history (or its
//     attempt aborted) and an epoch grace period has passed; a thread
//     allocates chunks until it has retired enough versions to cycle
//     through.
//   - the entry and locator overflows (0 in steady state): an access set
//     past the inline arrays moves to a slice sized by the Thread's hints,
//     and its locators to a chunk sized for the whole transaction. A record
//     keeps both for its next attempt, so a record that has run the thread's
//     largest transaction allocates neither again.
//
// So: read-only of any length 0, updates of any size 0, also when a thread
// alternates large and small ones.
//
// Values are written far outside the runtime's small-int interface cache
// (> 2⁴⁰) through the typed lane (ReadValue/WriteInt), so these budgets
// prove the unboxed int lane end to end: zero boxing allocations per int
// write on the hottest path.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/timebase"
)

// TestRecordSizes pins the layout the budgets are priced in: a timestamp is
// a tick count and a clock ID, a version publishes each of its two stamps as
// one atomic word, and the update record with its inline arrays fits the
// 448-byte size class.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(timebase.Timestamp{}); got != 16 {
		t.Errorf("timebase.Timestamp is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(version{}); got > 80 {
		t.Errorf("version is %d bytes, want ≤ 80", got)
	}
	if got := unsafe.Sizeof(Tx{}); got > 448 {
		t.Errorf("Tx is %d bytes, want ≤ 448", got)
	}
}

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
	allocBudget(t, "core read-only 2 reads", 0, func() {
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
	allocBudget(t, "core 1-write update", 0, func() {
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
	allocBudget(t, "core 2-write update", 0, func() {
		if err := th.Run(fn); err != nil {
			t.Fatal(err)
		}
	})
}

// Ten read-modify-writes overflow both inline arrays into slices the
// record keeps.
func TestAllocBudgetUpdateTen(t *testing.T) { updateBudget(t, 0, 10) }

// Forty also outgrow the linear scan: the index is the Thread's map.
func TestAllocBudgetUpdateForty(t *testing.T) { updateBudget(t, 0, 40) }

// A thread that alternates forty- and two-write commits: the hints fall
// after each small one, and a record that ran a small attempt keeps the
// arrays it grew into in a large one.
func TestAllocBudgetUpdateAlternating(t *testing.T) { updateBudget(t, 0, 40, 2) }

// bumpAll read-modify-writes every object through the int lane.
func bumpAll(tx *Tx, objs []*Object) error {
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

// updateBudget runs one update commit per element of writes, each bumping
// that many objects, and asserts the steady-state allocations of the round.
func updateBudget(t *testing.T, budget float64, writes ...int) {
	rt := counterRT()
	objs := make([]*Object, slices.Max(writes))
	for i := range objs {
		objs[i] = NewObject(big)
	}
	th := rt.Thread(0)
	fns := make([]func(*Tx) error, len(writes))
	for i, n := range writes {
		fns[i] = func(tx *Tx) error { return bumpAll(tx, objs[:n]) }
	}
	allocBudget(t, fmt.Sprintf("core %v-write updates", writes), budget, func() {
		for _, fn := range fns {
			if err := th.Run(fn); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestAllocBudgetForeignCut: two threads take turns updating the same two
// objects, so many of the versions each one's settles cut are the other's.
// The cutter hands those to their writer, which reuses them as it does the
// ones it cut itself: a pair of commits allocates nothing.
func TestAllocBudgetForeignCut(t *testing.T) {
	for _, maxV := range []int{2, DefaultMaxVersions} {
		rt := counterRT(func(c *Config) { c.MaxVersions = maxV })
		objs := []*Object{NewObject(big), NewObject(big)}
		a, b := rt.Thread(0), rt.Thread(1)
		fn := func(tx *Tx) error { return bumpAll(tx, objs) }
		allocBudget(t, fmt.Sprintf("core 2-write updates by two threads in turn, MaxVersions %d", maxV), 0, func() {
			for _, th := range []*Thread{a, b} {
				if err := th.Run(fn); err != nil {
					t.Fatal(err)
				}
			}
		})
		if a.handed == 0 || b.handed == 0 {
			t.Errorf("MaxVersions %d: the threads handed back %d and %d versions, want some each", maxV, a.handed, b.handed)
		}
	}
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
	allocBudget(t, "core read-only 256 reads", 0, func() {
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
// superseded versions in that chunk must not lead anywhere. That first
// commit runs before the hints are up, in a fresh record whose entries and
// locators overflow its inline arrays. The "reused" variant runs hot commits
// first, so the cold commit runs in a reused record that starts on the entry
// slice and locator chunk an earlier attempt grew into. Either record is then
// retired and reused, and a reused record must drop what its previous
// attempt's entries and locators pointed at, in the inline arrays and in the
// ones it kept; the cold cases check that at the start of every attempt. The
// other versions of the cold commit's chunk are cut,
// retired and reused as tentative versions of the hot set, each with a new
// prev: a recycled version must not keep its earlier history reachable
// either.
func TestHeapPlateau(t *testing.T) {
	commits := 2_000_000
	if testing.Short() {
		commits = 200_000
	}
	for _, tc := range []struct {
		name    string
		cold    bool
		warm    int // hot commits before the cold one
		commits int
	}{
		{"uniform", false, 0, commits},
		{"cold neighbour", true, 0, commits / 10},
		{"reused cold neighbour", true, 1000, commits / 10},
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
			var kept, dirty bool
			fn := func(tx *Tx) error {
				kept = cap(tx.entries) > smallAccessSet && cap(tx.locs) > smallWriteSet
				dirty = dirty || tc.cold && leftovers(tx)
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
				// 63 is written once, by the cold commit, and never again.
				hot--
			}
			perm := rng.Perm(hot)
			commit := func() {
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
			for range tc.warm {
				commit()
			}
			if tc.cold {
				// One commit over objects 54..63, while 54..62 stay in the
				// hot set.
				for k := range pick {
					pick[k] = len(objs) - 10 + k
				}
				if err := th.Run(fn); err != nil {
					t.Fatal(err)
				}
				if want := tc.warm > 0; kept != want {
					t.Fatalf("cold commit started on kept overflow arrays: %v, want %v", kept, want)
				}
			}
			var fifths [5]uint64
			for f := range fifths {
				for range tc.commits / 5 {
					commit()
				}
				fifths[f] = heapAfterGC()
			}
			if dirty {
				t.Error("an attempt started on a record that still pointed at its last attempt's objects or versions")
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

// leftovers reports whether a record starting an attempt still points at an
// object or a version through its entries or locators, inline or kept.
func leftovers(tx *Tx) bool {
	for _, es := range [][]entry{tx.inlineEntries[:], tx.entries[:cap(tx.entries)]} {
		for _, e := range es {
			if e != (entry{}) {
				return true
			}
		}
	}
	for _, ls := range [][]locator{tx.inlineLocs[:], tx.locs[:cap(tx.locs)]} {
		for _, l := range ls {
			if l.ver != nil {
				return true
			}
		}
	}
	return false
}
