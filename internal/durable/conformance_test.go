package durable

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
)

// TestRegistryWrappers: every wrapped backend is registered as
// "durable/<base>" with truthful capability claims, and the registry
// factory honors the -wal/-fsync/-snapshot options.
func TestRegistryWrappers(t *testing.T) {
	for _, base := range Wrapped {
		name := "durable/" + base
		t.Run(name, func(t *testing.T) {
			info, ok := engine.Describe(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			if !info.Capabilities.Durable {
				t.Error("Durable capability not claimed")
			}
			baseInfo, _ := engine.Describe(base)
			if info.Capabilities.MultiVersion != baseInfo.Capabilities.MultiVersion {
				t.Errorf("capabilities %+v diverge from base %+v", info.Capabilities, baseInfo.Capabilities)
			}
			for _, tun := range []string{"wal", "fsync", "snapshot"} {
				found := false
				for _, have := range info.Capabilities.Tunables {
					if have == tun {
						found = true
					}
				}
				if !found {
					t.Errorf("tunable %q not listed", tun)
				}
			}

			dir := t.TempDir()
			eng, err := engine.New(name, engine.Options{WALDir: dir, Fsync: FsyncAlways, SnapshotBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			d, ok := eng.(engine.Durable)
			if !ok {
				t.Fatal("engine does not implement engine.Durable")
			}
			if got := d.DurabilityInfo(); got.WALDir != dir || got.FsyncPolicy != FsyncAlways {
				t.Errorf("DurabilityInfo = %+v, want dir %s, policy always", got, dir)
			}
			// The int lane through the journaling transaction.
			c := eng.NewCell(1)
			th := eng.Thread(0)
			if err := th.Run(func(tx engine.Txn) error { return engine.Set(tx, c, 2) }); err != nil {
				t.Fatal(err)
			}
			// The typed accessors' boxed fallback through the journaling
			// transaction: a string round-trips, and Get[int] on it names the
			// held type.
			s := eng.NewCell("")
			if err := th.Run(func(tx engine.Txn) error { return engine.Set(tx, s, "a string") }); err != nil {
				t.Fatal(err)
			}
			if err := th.RunReadOnly(func(tx engine.Txn) error {
				got, err := engine.Get[string](tx, s)
				if err == nil && got != "a string" {
					t.Errorf("Get[string] = %q, want %q", got, "a string")
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			err = th.Run(func(tx engine.Txn) error {
				_, err := engine.Get[int](tx, s)
				return err
			})
			if err == nil || !strings.Contains(err.Error(), "holds string") {
				t.Errorf("type mismatch must surface, got %v", err)
			}
			if err := d.WALSync(); err != nil {
				t.Fatal(err)
			}
			if err := d.WALClose(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBankRecoveryRoundTrip is the in-process half of the headline proof:
// for every wrapped backend, a concurrent bank run closes cleanly (or is
// left mid-flight by a crash elsewhere in this file), reboots from the
// same directory, and the conserved sum plus every acknowledged commit
// survive.
func TestBankRecoveryRoundTrip(t *testing.T) {
	const (
		nAccounts = 8
		nThreads  = 4
		initial   = 100
	)
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for _, base := range Wrapped {
		for _, policy := range []string{FsyncAlways, FsyncGroup, FsyncNever} {
			t.Run("durable/"+base+"/"+policy, func(t *testing.T) {
				dir := t.TempDir()
				boot := func() (*Engine, []engine.Cell) {
					e := newTestEngine(t, base, dir, Options{Fsync: policy})
					cells := make([]engine.Cell, nAccounts)
					for i := range cells {
						cells[i] = e.NewCell(initial)
					}
					return e, cells
				}
				e, cells := boot()
				var commits atomic.Uint64
				var wg sync.WaitGroup
				for w := 0; w < nThreads; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						th := e.Thread(w)
						for i := 0; i < iters; i++ {
							from, to := (w+i)%nAccounts, (w+i+1)%nAccounts
							err := th.Run(func(tx engine.Txn) error {
								if err := engine.Update(tx, cells[from], func(n int) int { return n - 1 }); err != nil {
									return err
								}
								return engine.Update(tx, cells[to], func(n int) int { return n + 1 })
							})
							if err != nil {
								t.Error(err)
								return
							}
							commits.Add(1)
						}
					}(w)
				}
				wg.Wait()
				d := engine.Durable(e)
				if err := d.WALClose(); err != nil {
					t.Fatal(err)
				}

				e2, cells2 := boot()
				info := e2.DurabilityInfo()
				if info.RecoveredSeq != commits.Load() {
					t.Errorf("recovered seq %d, want %d (dense tickets, no gaps)", info.RecoveredSeq, commits.Load())
				}
				sum := 0
				th := e2.Thread(0)
				if err := th.RunReadOnly(func(tx engine.Txn) error {
					sum = 0
					for _, c := range cells2 {
						n, err := engine.Get[int](tx, c)
						if err != nil {
							return err
						}
						sum += n
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if sum != nAccounts*initial {
					t.Errorf("conserved sum %d, want %d", sum, nAccounts*initial)
				}
				// Read-your-committed-writes across the restart: one more
				// transfer, then its effect is visible.
				if err := th.Run(func(tx engine.Txn) error {
					return engine.Update(tx, cells2[0], func(n int) int { return n + 5 })
				}); err != nil {
					t.Fatal(err)
				}
				var got int
				if err := th.RunReadOnly(func(tx engine.Txn) error {
					var err error
					got, err = engine.Get[int](tx, cells2[0])
					return err
				}); err != nil {
					t.Fatal(err)
				}
				if err := e2.WALClose(); err != nil {
					t.Fatal(err)
				}
				e3, cells3 := boot()
				defer e3.WALClose()
				var after int
				if err := e3.Thread(0).RunReadOnly(func(tx engine.Txn) error {
					var err error
					after, err = engine.Get[int](tx, cells3[0])
					return err
				}); err != nil {
					t.Fatal(err)
				}
				if after != got {
					t.Errorf("read-your-writes across restart: %d, want %d", after, got)
				}
			})
		}
	}
}

// crashStates are the four crash states the WAL's tests name, each a fault
// of the test file system that kills the disk at the first operation it
// matches once armed: a final frame landed in part (6 bytes of it), a frame
// landed but not synced, a snapshot written but not renamed, and a snapshot
// renamed with the segments it covers still there.
var crashStates = []struct {
	name     string
	snapshot bool // compaction meets the fault, not a commit
	dies     func(op *fsOp) bool
}{
	{"after-partial-record", false, func(op *fsOp) bool { op.land = 6; return op.kind == opWrite }},
	{"after-record-before-sync", false, func(op *fsOp) bool { return op.kind == opSync }},
	{"mid-snapshot-rename", true, func(op *fsOp) bool { return op.kind == opRename }},
	{"after-snapshot-rename", true, func(op *fsOp) bool { return op.kind == opRemove && isSegment(op.path) }},
}

// TestCrashpointConformance is the injected-fault half of the headline
// proof: for every wrapped backend and every crash state, a single-threaded
// bank run loses its disk mid-commit (or mid-compaction), the dead engine is
// discarded, and a fresh boot from the directory restores a state that (a)
// conserves the sum, (b) contains every acknowledged commit, and (c) is an
// exact seq-dense prefix of the run (counter == recovered seq).
func TestCrashpointConformance(t *testing.T) {
	for _, base := range Wrapped {
		for _, state := range crashStates {
			t.Run("durable/"+base+"/"+state.name, func(t *testing.T) {
				dir := t.TempDir()
				fs := &testFS{}
				opt := Options{}
				if state.snapshot {
					// Tiny threshold and segments: every commit rotates and
					// starts a compaction, which meets the fault
					// asynchronously.
					opt.SnapshotBytes, opt.SegmentBytes = 1, 1
				}
				e := newTestEngineFS(t, base, dir, opt, fs)
				th := e.Thread(0)
				a, b, c := bankCells(e)

				lastAcked := 0
				var crashErr error
				for i := 1; i <= 200; i++ {
					if i == 5 {
						fs.dieAt(state.dies)
					}
					if err := transfer(th, a, b, c, i); err != nil {
						crashErr = err
						break
					}
					lastAcked = i
				}
				if crashErr == nil && state.snapshot {
					// Compaction crashes asynchronously; wait it out, then
					// the next transfer must find the disk dead.
					e.compactWG.Wait()
					crashErr = transfer(th, a, b, c, 201)
				}
				if !errors.Is(crashErr, errDied) {
					t.Fatalf("run never crashed: lastAcked=%d err=%v", lastAcked, crashErr)
				}
				if e.log.Err() == nil {
					t.Fatal("engine not wedged after the crash")
				}
				if d := fs.died(); d == nil || !state.dies(&fsOp{kind: d.kind, path: d.path}) {
					t.Fatalf("the disk died at %+v, not at the %s fault", d, state.name)
				}
				e.compactWG.Wait()
				e.WALClose()

				// Discard the dead engine; recover a fresh one.
				info := checkBankRecovery(t, base, dir, lastAcked)
				if state.name == "after-snapshot-rename" && info.SnapshotSeq == 0 {
					t.Error("snapshot was installed but boot ignored it")
				}
			})
		}
	}
}

// checkBankRecovery boots base over dir, the directory of a bank run
// (bankCells, transfer) that crashed after acknowledging lastAcked
// transfers, and checks that the recovered state conserves the sum, holds
// every acknowledged transfer and is the exact prefix its counter names.
func checkBankRecovery(t *testing.T, base, dir string, lastAcked int) engine.DurabilityInfo {
	t.Helper()
	e := newTestEngine(t, base, dir, Options{})
	defer e.WALClose()
	a, b, c := bankCells(e)
	var av, bv, cv int
	if err := e.Thread(0).RunReadOnly(func(tx engine.Txn) error {
		var err error
		if av, err = engine.Get[int](tx, a); err != nil {
			return err
		}
		if bv, err = engine.Get[int](tx, b); err != nil {
			return err
		}
		cv, err = engine.Get[int](tx, c)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if av+bv != 2000 {
		t.Errorf("conserved sum %d+%d, want 2000", av, bv)
	}
	if cv < lastAcked {
		t.Errorf("acked commit lost: counter %d < last acked %d", cv, lastAcked)
	}
	info := e.DurabilityInfo()
	if uint64(cv) != info.RecoveredSeq {
		t.Errorf("counter %d != recovered seq %d (not a dense prefix)", cv, info.RecoveredSeq)
	}
	if av != 1000-cv || bv != 1000+cv {
		t.Errorf("state a=%d b=%d not the seq-%d prefix", av, bv, cv)
	}
	return info
}

// TestCrashAtEveryFileOperation kills the disk at every file operation of
// one run in turn, not at a few named points: a single-threaded bank run on
// durable/norec under group commit, over segments small enough to rotate
// several times, with one compaction halfway. The disk dies at operation k
// (a write lands half its bytes first), and a fresh boot must meet the
// conformance checks above, with the snapshot installed exactly when k came
// after its rename. Under -short only some k run, the first and the last of
// each kind among them.
func TestCrashAtEveryFileOperation(t *testing.T) {
	const transfers = 40
	// run does the bank run over fs in a fresh directory.
	run := func(fs *testFS) (dir string, lastAcked int) {
		dir = t.TempDir()
		e, err := wrap(engine.MustNew("norec", engine.Options{}),
			Options{Dir: dir, Fsync: FsyncGroup, SnapshotBytes: -1, SegmentBytes: 128}, fs)
		if err != nil {
			return dir, 0
		}
		defer e.WALClose()
		th := e.Thread(0)
		a, b, c := bankCells(e)
		for i := 1; i <= transfers; i++ {
			if i == transfers/2 {
				e.compact()
			}
			if err := transfer(th, a, b, c, i); err != nil {
				return dir, lastAcked
			}
			lastAcked = i
		}
		return dir, lastAcked
	}

	clean := &testFS{}
	if _, acked := run(clean); acked != transfers {
		t.Fatalf("the clean run acknowledged %d of %d transfers", acked, transfers)
	}
	ops := clean.record()
	renamed := opIndex(ops, 0, func(op fsOp) bool { return op.kind == opRename })
	segments := 0
	for _, op := range ops {
		if op.kind == opCreate && isSegment(op.path) {
			segments++
		}
	}
	if segments < 4 || renamed < 0 {
		t.Fatalf("the run made %d segments and renamed at %d; want several rotations and a compaction", segments, renamed)
	}

	ks := make([]int, 0, len(ops))
	first, last := map[string]int{}, map[string]int{}
	for k, op := range ops {
		if _, ok := first[op.kind]; !ok {
			first[op.kind] = k
		}
		last[op.kind] = k
	}
	for k, op := range ops {
		if !testing.Short() || k%5 == 0 || k == first[op.kind] || k == last[op.kind] {
			ks = append(ks, k)
		}
	}
	for _, k := range ks {
		fs := &testFS{fault: func(op *fsOp) error {
			if op.n == k {
				op.land = len(op.data) / 2
				return errDied
			}
			return nil
		}}
		dir, acked := run(fs)
		if d := fs.died(); d == nil || d.kind != ops[k].kind {
			t.Fatalf("op %d: the disk died at %+v, want a %s (the run is not deterministic)", k, d, ops[k].kind)
		}
		info := checkBankRecovery(t, "norec", dir, acked)
		if installed := info.SnapshotSeq > 0; installed != (k > renamed) {
			t.Errorf("died at op %d (%s), the rename at %d: snapshot seq %d", k, ops[k].kind, renamed, info.SnapshotSeq)
		}
		if t.Failed() {
			t.Fatalf("died at op %d: %+v", k, ops[k])
		}
	}
	t.Logf("%d file operations, %d crash states checked", len(ops), len(ks))
}

// TestConcurrentGroupCommitCrash: the disk dies in a batch write under
// concurrent load and group fsync, and recovery still finds every
// acknowledged commit — the group flush happens before the acknowledgment,
// so acked ⇒ durable even batched.
func TestConcurrentGroupCommitCrash(t *testing.T) {
	for _, base := range Wrapped {
		t.Run("durable/"+base, func(t *testing.T) {
			dir := t.TempDir()
			fs := &testFS{}
			e := newTestEngineFS(t, base, dir, Options{Fsync: FsyncGroup}, fs)
			const nThreads = 4
			cells := make([]engine.Cell, nThreads)
			for i := range cells {
				cells[i] = e.NewCell(0)
			}
			var acked [nThreads]atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < nThreads; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := e.Thread(w)
					for i := 1; i <= 500; i++ {
						if w == 0 && i == 40 {
							fs.dieAt(func(op *fsOp) bool { op.land = 3; return op.kind == opWrite })
						}
						err := th.Run(func(tx engine.Txn) error {
							return engine.Set(tx, cells[w], i)
						})
						if err != nil {
							return
						}
						acked[w].Store(int64(i))
					}
				}(w)
			}
			wg.Wait()
			if e.log.Err() == nil {
				t.Fatal("engine never crashed")
			}
			e.WALClose()

			e2 := newTestEngine(t, base, dir, Options{})
			defer e2.WALClose()
			cells2 := make([]engine.Cell, nThreads)
			for i := range cells2 {
				cells2[i] = e2.NewCell(0)
			}
			if err := e2.Thread(0).RunReadOnly(func(tx engine.Txn) error {
				for w := 0; w < nThreads; w++ {
					n, err := engine.Get[int](tx, cells2[w])
					if err != nil {
						return err
					}
					if int64(n) < acked[w].Load() {
						t.Errorf("thread %d: acked commit lost (recovered %d < acked %d)", w, n, acked[w].Load())
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecoveredCellsBeyondRecreation: values recovered for cell ids the
// application has not re-created survive both boot and a later compaction.
func TestRecoveredCellsBeyondRecreation(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, "norec", dir, Options{})
	cells := make([]engine.Cell, 4)
	for i := range cells {
		cells[i] = e.NewCell(0)
	}
	th := e.Thread(0)
	for i, c := range cells {
		c := c
		if err := th.Run(func(tx engine.Txn) error { return engine.Set(tx, c, 10+i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.WALClose(); err != nil {
		t.Fatal(err)
	}

	// Reboot recreating only 2 of the 4 cells, commit, compact, close.
	e2 := newTestEngine(t, "norec", dir, Options{})
	c0, c1 := e2.NewCell(0), e2.NewCell(0)
	_ = c1
	th2 := e2.Thread(0)
	if err := th2.Run(func(tx engine.Txn) error { return engine.Set(tx, c0, 99) }); err != nil {
		t.Fatal(err)
	}
	e2.compact()
	if err := e2.WALClose(); err != nil {
		t.Fatal(err)
	}

	rec, err := recoverDir(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[uint64]int{0: 99, 1: 11, 2: 12, 3: 13} {
		v, ok := rec.values.get(id)
		if !ok {
			t.Errorf("cell %d dropped by compaction", id)
			continue
		}
		if got := v.Load().(int); got != want {
			t.Errorf("cell %d = %d, want %d", id, got, want)
		}
	}
	if rec.snapSeq == 0 {
		t.Error("compaction never installed a snapshot")
	}
}

// TestRegisteredDurableCount pins the wrapper roster: the three paper
// engines named by the acceptance criteria, each present in the registry.
func TestRegisteredDurableCount(t *testing.T) {
	want := map[string]bool{"durable/norec": true, "durable/lsa/shared": true, "durable/glock": true}
	got := 0
	for _, n := range engine.Names() {
		if want[n] {
			got++
		}
	}
	if got != len(want) {
		t.Fatalf("registered %d of %d durable wrappers: %v", got, len(want), engine.Names())
	}
}

// TestDurabilityInfoJSONShape: the info block stmserve and the bench
// snapshot embed marshals with the documented field names.
func TestDurabilityInfoJSONShape(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, "norec", dir, Options{})
	defer e.WALClose()
	info := e.DurabilityInfo()
	if info.FsyncPolicy != FsyncAlways || info.WALDir != dir {
		t.Errorf("info = %+v", info)
	}
	s := fmt.Sprintf("%+v", info)
	if s == "" {
		t.Fatal("unprintable info")
	}
}
