// Cross-backend conformance suite: every registered engine must preserve
// the transactional invariants the paper's comparisons assume — atomicity
// of multi-cell updates (the bank's conserved total) and snapshot
// consistency of reads (a writer/checker pair that must always sum to
// zero). Run with -race; the suite is also the compatibility gate for new
// backends: register the engine and these tests cover it with no further
// wiring.
package engine_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

const confWorkers = 4

// confIters scales a per-worker iteration count down in -short mode: the CI
// cross-engine job runs the whole suite × 13 engines under the race
// detector, where full iteration counts cost minutes without adding
// coverage beyond what the long mode already proves.
func confIters(t *testing.T, n int) int {
	t.Helper()
	if testing.Short() {
		return n / 4
	}
	return n
}

func TestConformanceBankInvariant(t *testing.T) {
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			eng := engine.MustNew(name, engine.Options{Nodes: confWorkers})
			b := &workload.Bank{Accounts: 16, Initial: 200, AuditRatio: 0.25, Seed: 42}
			if err := b.Init(eng, confWorkers); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for id := 0; id < confWorkers; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := eng.Thread(id)
					step := b.Step(eng, th, id)
					for i := 0; i < confIters(t, 200); i++ {
						if err := step(); err != nil {
							t.Errorf("worker %d: %v", id, err)
							return
						}
					}
				}(id)
			}
			wg.Wait()
			total, err := b.Total()
			if err != nil {
				t.Fatal(err)
			}
			if want := 16 * 200; total != want {
				t.Errorf("money not conserved: total = %d, want %d", total, want)
			}
			if s := eng.Stats(); s.Commits == 0 {
				t.Errorf("engine counted no commits: %+v", s)
			}
		})
	}
}

// TestConformanceSnapshotConsistency hammers a writer/checker pair: writers
// atomically store {n, -n}, checkers (both updating and read-only) must
// never observe a sum other than zero — a torn snapshot fails immediately.
func TestConformanceSnapshotConsistency(t *testing.T) {
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			eng := engine.MustNew(name, engine.Options{Nodes: confWorkers})
			a, b := eng.NewCell(0), eng.NewCell(0)
			var violations atomic.Int64
			var wg sync.WaitGroup
			for id := 0; id < confWorkers; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := eng.Thread(id)
					for i := 1; i <= confIters(t, 300); i++ {
						var err error
						switch {
						case id%2 == 0:
							n := id*1000 + i
							err = th.Run(func(tx engine.Txn) error {
								if err := tx.Write(a, n); err != nil {
									return err
								}
								return tx.Write(b, -n)
							})
						case i%2 == 0:
							err = th.RunReadOnly(func(tx engine.Txn) error {
								return checkPair(tx, a, b, &violations)
							})
						default:
							err = th.Run(func(tx engine.Txn) error {
								return checkPair(tx, a, b, &violations)
							})
						}
						if err != nil {
							t.Errorf("worker %d: %v", id, err)
							return
						}
					}
				}(id)
			}
			wg.Wait()
			if v := violations.Load(); v > 0 {
				t.Errorf("%d torn snapshots observed", v)
			}
		})
	}
}

func checkPair(tx engine.Txn, a, b engine.Cell, violations *atomic.Int64) error {
	av, err := engine.Get[int](tx, a)
	if err != nil {
		return err
	}
	bv, err := engine.Get[int](tx, b)
	if err != nil {
		return err
	}
	if av+bv != 0 {
		violations.Add(1)
		return fmt.Errorf("torn pair: %d/%d", av, bv)
	}
	return nil
}

// TestConformanceIntSet runs the linked-list set concurrently on every
// backend and checks the surviving structure — dynamic cell allocation
// inside transactions (node inserts) must compose with each engine's
// retry machinery.
func TestConformanceIntSet(t *testing.T) {
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			eng := engine.MustNew(name, engine.Options{Nodes: confWorkers})
			s := &workload.IntSet{KeyRange: 32, UpdateRatio: 0.6, Seed: 17}
			if err := s.Init(eng, confWorkers); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for id := 0; id < confWorkers; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := eng.Thread(id)
					step := s.Step(eng, th, id)
					for i := 0; i < confIters(t, 150); i++ {
						if err := step(); err != nil {
							t.Errorf("worker %d: %v", id, err)
							return
						}
					}
				}(id)
			}
			wg.Wait()
			keys, err := s.Snapshot(eng.Thread(confWorkers))
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int]bool{}
			last := -1
			for _, k := range keys {
				if k <= last {
					t.Errorf("list out of order: %v", keys)
					break
				}
				last = k
				if seen[k] {
					t.Errorf("duplicate key %d", k)
				}
				seen[k] = true
			}
		})
	}
}

// TestConformanceQueues runs two SlotQueue shapes — one group (a strict
// FIFO through a single head/tail cursor pair) and four groups with their
// own cursors — concurrently on
// every backend and checks element conservation: pushes that reported ok
// minus pops that reported ok must equal the surviving queue length, and
// the length must fit the capacity. The queue transactions mix two hot
// cursor cells (or many cooler ones) with mostly cold slots, a shape the
// other conformance workloads do not exercise.
func TestConformanceQueues(t *testing.T) {
	variants := []struct {
		name string
		q    workload.SlotQueue
	}{
		{"queue", workload.SlotQueue{Groups: 1, SlotsPerGroup: 8, Seed: 7}},
		{"slotqueue", workload.SlotQueue{Groups: 4, SlotsPerGroup: 2, Seed: 7}},
	}
	for _, variant := range variants {
		for _, name := range engine.Names() {
			t.Run(variant.name+"/"+name, func(t *testing.T) {
				eng := engine.MustNew(name, engine.Options{Nodes: confWorkers})
				q := variant.q
				if err := q.Init(eng, confWorkers); err != nil {
					t.Fatal(err)
				}
				capacity := q.Groups * q.SlotsPerGroup
				var pushed, popped atomic.Int64
				var wg sync.WaitGroup
				for id := 0; id < confWorkers; id++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						th := eng.Thread(id)
						for i := 0; i < confIters(t, 200); i++ {
							if id%2 == 0 {
								ok, err := q.Push(th, id*1000+i, id+i)
								if err != nil {
									t.Errorf("worker %d push: %v", id, err)
									return
								}
								if ok {
									pushed.Add(1)
								}
							} else {
								_, ok, err := q.Pop(th, id+i)
								if err != nil {
									t.Errorf("worker %d pop: %v", id, err)
									return
								}
								if ok {
									popped.Add(1)
								}
							}
						}
					}(id)
				}
				wg.Wait()
				remaining, err := q.Len(eng.Thread(confWorkers))
				if err != nil {
					t.Fatal(err)
				}
				if int(pushed.Load()) != int(popped.Load())+remaining {
					t.Errorf("conservation broken: pushed %d, popped %d, remaining %d",
						pushed.Load(), popped.Load(), remaining)
				}
				if remaining < 0 || remaining > capacity {
					t.Errorf("remaining %d outside [0,%d]", remaining, capacity)
				}
			})
		}
	}
}

// TestConformanceSkipList runs the multi-level skiplist concurrently on
// every backend: towers splice several cells per update (often rewriting
// the same predecessor at adjacent levels), so read-own-write handling and
// dynamic cell allocation must compose with each engine's retry machinery
// on a deeper structure than the linked list.
func TestConformanceSkipList(t *testing.T) {
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			eng := engine.MustNew(name, engine.Options{Nodes: confWorkers})
			s := &workload.SkipList{KeyRange: 48, UpdateRatio: 0.6, Seed: 23}
			if err := s.Init(eng, confWorkers); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for id := 0; id < confWorkers; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := eng.Thread(id)
					step := s.Step(eng, th, id)
					for i := 0; i < confIters(t, 150); i++ {
						if err := step(); err != nil {
							t.Errorf("worker %d: %v", id, err)
							return
						}
					}
				}(id)
			}
			wg.Wait()
			keys, err := s.Snapshot(eng.Thread(confWorkers))
			if err != nil {
				t.Fatal(err)
			}
			last := -1
			for _, k := range keys {
				if k <= last {
					t.Errorf("skiplist bottom level out of order: %v", keys)
					break
				}
				last = k
			}
		})
	}
}

// mixedPayload is the escape-hatch payload of the mixed-type conformance
// test: a struct, so it can never ride the numeric lane.
type mixedPayload struct{ n int }

// TestConformanceMixedTypeCell exercises one cell that alternates between
// the unboxed int lane and boxed payloads on every backend. The
// single-threaded phase checks the documented lane semantics (escape-hatch
// values round-trip exactly; lane values read back as int; a typed Get[int]
// on a boxed cell falls back and fails cleanly instead of serving a stale
// lane word). The concurrent phase hammers a writer that atomically stores
// {n or mixedPayload{n}} and {−n}: a reader that ever decodes a stale lane
// value against a current boxed one (or vice versa) breaks the zero-sum
// invariant immediately.
func TestConformanceMixedTypeCell(t *testing.T) {
	const bigBase = 1 << 40 // far outside the runtime's small-int cache
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			eng := engine.MustNew(name, engine.Options{Nodes: confWorkers})
			th := eng.Thread(0)

			c := eng.NewCell("seed")
			readRaw := func() any {
				var v any
				if err := th.RunReadOnly(func(tx engine.Txn) error {
					var err error
					v, err = tx.Read(c)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				return v
			}
			// Boxed seed: exact round trip, and Get[int] must error (the
			// fallback path), not serve a leftover lane word.
			if got := readRaw(); got != "seed" {
				t.Fatalf("boxed seed read back as %v", got)
			}
			if err := th.RunReadOnly(func(tx engine.Txn) error {
				_, err := engine.Get[int](tx, c)
				return err
			}); err == nil {
				t.Fatal("Get[int] on a string cell must error")
			}
			// Int lane: typed round trip, canonical dynamic type int.
			if err := th.Run(func(tx engine.Txn) error {
				return engine.Set(tx, c, bigBase+1)
			}); err != nil {
				t.Fatal(err)
			}
			if got := readRaw(); got != int(bigBase+1) {
				t.Fatalf("lane value read back as %v (%T)", got, got)
			}
			// Back to a boxed struct: Get[int] must not alias the stale
			// lane word bigBase+1.
			if err := th.Run(func(tx engine.Txn) error {
				return tx.Write(c, mixedPayload{n: 7})
			}); err != nil {
				t.Fatal(err)
			}
			if got := readRaw(); got != (mixedPayload{n: 7}) {
				t.Fatalf("struct read back as %v (%T)", got, got)
			}
			if err := th.RunReadOnly(func(tx engine.Txn) error {
				_, err := engine.Get[int](tx, c)
				return err
			}); err == nil {
				t.Fatal("Get[int] after a boxed overwrite must error, not serve the stale lane value")
			}
			// Raw int64 writes keep their exact dynamic type; Set[int64]
			// rides the lane and canonicalizes to int (documented).
			if err := th.Run(func(tx engine.Txn) error {
				return tx.Write(c, int64(bigBase+2))
			}); err != nil {
				t.Fatal(err)
			}
			if got := readRaw(); got != int64(bigBase+2) {
				t.Fatalf("raw int64 read back as %v (%T)", got, got)
			}
			if err := th.Run(func(tx engine.Txn) error {
				return engine.Set(tx, c, int64(bigBase+3))
			}); err != nil {
				t.Fatal(err)
			}
			var got64 int64
			if err := th.RunReadOnly(func(tx engine.Txn) error {
				var err error
				got64, err = engine.Get[int64](tx, c)
				return err
			}); err != nil || got64 != bigBase+3 {
				t.Fatalf("Get[int64] through the lane = %d, %v", got64, err)
			}

			// Concurrent phase: type-toggling writer vs decoding readers.
			a, b := eng.NewCell(mixedPayload{}), eng.NewCell(0)
			var violations atomic.Int64
			var wg sync.WaitGroup
			for id := 0; id < confWorkers; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := eng.Thread(id)
					for i := 1; i <= confIters(t, 200); i++ {
						var err error
						if id == 0 {
							n := bigBase + i
							err = th.Run(func(tx engine.Txn) error {
								if i%2 == 0 {
									if err := engine.Set(tx, a, n); err != nil {
										return err
									}
								} else if err := tx.Write(a, mixedPayload{n: n}); err != nil {
									return err
								}
								return engine.Set(tx, b, -n)
							})
						} else {
							check := func(tx engine.Txn) error {
								v, err := tx.Read(a)
								if err != nil {
									return err
								}
								var n int
								switch x := v.(type) {
								case int:
									n = x
								case mixedPayload:
									n = x.n
								default:
									violations.Add(1)
									return fmt.Errorf("cell a holds %T", v)
								}
								m, err := engine.Get[int](tx, b)
								if err != nil {
									return err
								}
								if n+m != 0 {
									violations.Add(1)
									return fmt.Errorf("stale lane/box pair: %d vs %d", n, m)
								}
								return nil
							}
							if i%2 == 0 {
								err = th.RunReadOnly(check)
							} else {
								err = th.Run(check)
							}
						}
						if err != nil {
							t.Errorf("worker %d: %v", id, err)
							return
						}
					}
				}(id)
			}
			wg.Wait()
			if v := violations.Load(); v > 0 {
				t.Errorf("%d stale lane/box observations", v)
			}
		})
	}
}

// TestConformanceAbortTaxonomy runs a deliberately contended workload on
// every registered engine and asserts that each abort landed in exactly one
// taxonomy bucket: UnclassifiedAborts must be zero, and the attempt counter
// (AttemptCounter, which the harness's retry-latency histogram relies on)
// must tie out against commits + aborts + user aborts.
func TestConformanceAbortTaxonomy(t *testing.T) {
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			eng := engine.MustNew(name, engine.Options{Nodes: confWorkers})
			// Two hot cells shared by every worker: plenty of conflicts.
			a, b := eng.NewCell(0), eng.NewCell(0)
			var attempts atomic.Uint64
			var wg sync.WaitGroup
			for id := 0; id < confWorkers; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := eng.Thread(id)
					for i := 0; i < confIters(t, 400); i++ {
						err := th.Run(func(tx engine.Txn) error {
							av, err := engine.Get[int](tx, a)
							if err != nil {
								return err
							}
							if err := tx.Write(a, av+1); err != nil {
								return err
							}
							return tx.Write(b, -(av + 1))
						})
						if err != nil {
							t.Errorf("worker %d: %v", id, err)
							return
						}
					}
					if ac, ok := th.(engine.AttemptCounter); !ok {
						t.Errorf("thread of %s does not implement engine.AttemptCounter", name)
					} else {
						attempts.Add(ac.Attempts())
					}
				}(id)
			}
			wg.Wait()
			s := eng.Stats()
			if s.Commits == 0 {
				t.Fatalf("engine counted no commits: %+v", s)
			}
			if u := s.UnclassifiedAborts(); u != 0 {
				t.Errorf("%d of %d aborts unclassified (stats %+v)", u, s.Aborts, s)
			}
			if got, want := attempts.Load(), s.Commits+s.Aborts+s.UserAborts; got != want {
				t.Errorf("AttemptCounter total = %d, want commits+aborts+userAborts = %d", got, want)
			}
		})
	}
}
