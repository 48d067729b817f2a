// Service-level conformance suite: every registered engine, behind both
// connection→Thread mappings, must preserve the transactional invariants
// through stmserve's in-memory Service — the bank's conserved total under
// concurrent transfers with snapshot audits, and consistency of batch
// reads against paired batch writes. No sockets anywhere; run with -race.
// Like the engine-level suite, this is the compatibility gate: register a
// backend and it is covered with no further wiring.
package stmserve_test

import (
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/stmserve"
)

const confWorkers = 4

func confIters(t *testing.T, n int) int {
	t.Helper()
	if testing.Short() {
		return n / 4
	}
	return n
}

// forEachEngineAndMode runs fn once per (backend, conn-mapping mode) pair
// over a fresh Service.
func forEachEngineAndMode(t *testing.T, keys int, initial int64, fn func(t *testing.T, svc *stmserve.Service)) {
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			for _, mode := range []string{stmserve.ModeThread, stmserve.ModePool} {
				t.Run(mode, func(t *testing.T) {
					eng := engine.MustNew(name, engine.Options{Nodes: confWorkers})
					svc, err := stmserve.New(eng, stmserve.Config{
						Keys: keys, Initial: initial, Mode: mode,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer svc.Close()
					fn(t, svc)
				})
			}
		})
	}
}

// TestConformanceBank drives concurrent transfers through sessions with
// interleaved snapshot audits: every snapshot, and the final one, must sum
// to Keys×Initial.
func TestConformanceBank(t *testing.T) {
	const keys, initial = 24, 100
	forEachEngineAndMode(t, keys, initial, func(t *testing.T, svc *stmserve.Service) {
		allKeys := make([]int, keys)
		for i := range allKeys {
			allKeys[i] = i
		}
		audit := func(resp *stmserve.Response, when string) {
			var sum int64
			for _, v := range resp.Vals {
				sum += v
			}
			if sum != keys*initial {
				t.Errorf("%s: snapshot sums to %d, want %d", when, sum, keys*initial)
			}
		}
		var wg sync.WaitGroup
		for id := 0; id < confWorkers; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				sess := svc.Session()
				defer sess.Close()
				var resp stmserve.Response
				for i := 0; i < confIters(t, 150); i++ {
					from := (id*31 + i) % keys
					to := (from + 1 + i%(keys-1)) % keys
					req := stmserve.Request{Op: stmserve.OpTransfer, Key: from, Key2: to, Val: int64(i % 7)}
					if err := sess.Exec(&req, &resp); err != nil {
						t.Errorf("worker %d transfer: %v", id, err)
						return
					}
					if i%10 == 0 {
						req = stmserve.Request{Op: stmserve.OpSnapshot, Keys: allKeys}
						if err := sess.Exec(&req, &resp); err != nil {
							t.Errorf("worker %d audit: %v", id, err)
							return
						}
						audit(&resp, "concurrent audit")
					}
				}
			}(id)
		}
		wg.Wait()
		sess := svc.Session()
		defer sess.Close()
		var resp stmserve.Response
		if err := sess.Exec(&stmserve.Request{Op: stmserve.OpSnapshot, Keys: allKeys}, &resp); err != nil {
			t.Fatal(err)
		}
		audit(&resp, "final audit")
		if st := svc.Stats(); st.EngineStats.Commits == 0 {
			t.Errorf("engine counted no commits: %+v", st.EngineStats)
		}
	})
}

// TestConformanceBatchSnapshot pairs batch writers with snapshot checkers:
// writers atomically store {n, −n} into a fixed pair via batch writes, so
// any snapshot or batch read of the pair must sum to zero — a torn read
// fails immediately.
func TestConformanceBatchSnapshot(t *testing.T) {
	const keys = 8
	forEachEngineAndMode(t, keys, 1, func(t *testing.T, svc *stmserve.Service) {
		pair := []int{2, 5}
		// Balance the pair before any checker runs (cells start at the
		// configured Initial, which does not sum to zero).
		seed := svc.Session()
		var seedResp stmserve.Response
		if err := seed.Exec(&stmserve.Request{Op: stmserve.OpBatchWrite, Keys: pair, Vals: []int64{7, -7}}, &seedResp); err != nil {
			t.Fatal(err)
		}
		seed.Close()
		var wg sync.WaitGroup
		// Two writers hammer the pair with balanced batch writes.
		for id := 0; id < 2; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				sess := svc.Session()
				defer sess.Close()
				var resp stmserve.Response
				for i := 0; i < confIters(t, 150); i++ {
					n := int64((id+1)*1000 + i)
					req := stmserve.Request{Op: stmserve.OpBatchWrite, Keys: pair, Vals: []int64{n, -n}}
					if err := sess.Exec(&req, &resp); err != nil {
						t.Errorf("writer %d: %v", id, err)
						return
					}
				}
			}(id)
		}
		// Two checkers read the pair, one through snapshots (read-only
		// transactions), one through batch reads (update-capable).
		for id := 0; id < 2; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				op := stmserve.OpSnapshot
				if id == 1 {
					op = stmserve.OpBatchRead
				}
				sess := svc.Session()
				defer sess.Close()
				var resp stmserve.Response
				for i := 0; i < confIters(t, 60); i++ {
					req := stmserve.Request{Op: op, Keys: pair}
					if err := sess.Exec(&req, &resp); err != nil {
						t.Errorf("checker %d: %v", id, err)
						return
					}
					if sum := resp.Vals[0] + resp.Vals[1]; sum != 0 {
						t.Errorf("checker %d (%v): torn pair %v", id, op, resp.Vals)
						return
					}
				}
			}(id)
		}
		wg.Wait()
	})
}
