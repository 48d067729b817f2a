package core

// White-box tests for the engine's internal mechanisms: locator settling,
// version-chain trimming, preliminary upper bounds, commit helping, and the
// "closed transaction" optimization. These pin down behaviours the
// black-box tests only exercise probabilistically.

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/timebase"
)

func counterRT(opts ...func(*Config)) *Runtime {
	cfg := Config{TimeBase: timebase.NewSharedCounter()}
	for _, o := range opts {
		o(&cfg)
	}
	return MustRuntime(cfg)
}

func TestSettleCommittedWriter(t *testing.T) {
	rt := counterRT()
	o := NewObject(1)
	th := rt.Thread(0)
	if err := th.Run(func(tx *Tx) error { return tx.Write(o, 2) }); err != nil {
		t.Fatal(err)
	}
	loc := o.settled(rt.maxVersions)
	if loc.writer != nil {
		t.Fatalf("settled locator still has writer %v", loc.writer.Status())
	}
	if loc.head().value.Load().(int) != 2 {
		t.Errorf("head value = %v, want 2", loc.head().value)
	}
	if loc.head().validFrom().IsZero() || loc.head().validFrom().IsInf() {
		t.Errorf("head validFrom = %v, want a real commit time", loc.head().validFrom())
	}
	// The superseded genesis version must carry a fixed upper bound one
	// tick below the new version's start.
	old := loc.head().prev.Load()
	if old == nil {
		t.Fatal("history lost on settle")
	}
	ub := old.until.Load()
	if ub == nil {
		t.Fatal("superseded version has no fixed upper bound")
	}
	if want := loc.head().validFrom().Pred(); *ub != want {
		t.Errorf("old version UB = %v, want %v", *ub, want)
	}
}

func TestSettleAbortedWriterKeepsValue(t *testing.T) {
	rt := counterRT()
	o := NewObject(7)
	th := rt.Thread(0)
	boom := errors.New("boom")
	if err := th.Run(func(tx *Tx) error {
		if err := tx.Write(o, 99); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	loc := o.settled(rt.maxVersions)
	if loc.writer != nil {
		t.Fatal("aborted writer not cleaned")
	}
	if loc.head().value.Load().(int) != 7 {
		t.Errorf("value = %v, want original 7", loc.head().value)
	}
	if loc.head().until.Load() != nil {
		t.Error("current version got an upper bound from an aborted commit")
	}
}

func TestTrimBoundsHistory(t *testing.T) {
	const maxV = 3
	rt := counterRT(func(c *Config) { c.MaxVersions = maxV })
	o := NewObject(0)
	th := rt.Thread(0)
	for i := 1; i <= 10; i++ {
		if err := th.Run(func(tx *Tx) error { return tx.Write(o, i) }); err != nil {
			t.Fatal(err)
		}
	}
	loc := o.settled(maxV)
	depth := 0
	for v := loc.head(); v != nil; v = v.prev.Load() {
		depth++
		if depth > maxV+1 {
			t.Fatalf("history deeper than MaxVersions=%d", maxV)
		}
	}
	if depth > maxV {
		t.Errorf("history depth %d, want ≤ %d", depth, maxV)
	}
	if loc.head().value.Load().(int) != 10 {
		t.Errorf("head = %v, want 10", loc.head().value)
	}
}

func TestHistoryOrderedNewestFirst(t *testing.T) {
	rt := counterRT(func(c *Config) { c.MaxVersions = 8 })
	o := NewObject(0)
	th := rt.Thread(0)
	for i := 1; i <= 6; i++ {
		if err := th.Run(func(tx *Tx) error { return tx.Write(o, i) }); err != nil {
			t.Fatal(err)
		}
	}
	loc := o.settled(8)
	prevFrom := timebase.Inf
	want := 6
	for v := loc.head(); v != nil; v = v.prev.Load() {
		if !prevFrom.LaterEq(v.validFrom()) {
			t.Fatalf("chain out of order: %v then %v", prevFrom, v.validFrom())
		}
		if !v.validFrom().IsNegInf() && v.value.Load().(int) != want {
			t.Fatalf("version value %v, want %d", v.value, want)
		}
		want--
		prevFrom = v.validFrom()
	}
}

func TestPrelimUBSupersededIsFinal(t *testing.T) {
	rt := counterRT()
	o := NewObject(0)
	th := rt.Thread(0)
	if err := th.Run(func(tx *Tx) error { return tx.Write(o, 1) }); err != nil {
		t.Fatal(err)
	}
	loc := o.settled(rt.maxVersions)
	old := loc.head().prev.Load()
	clock := rt.TimeBase().Clock(9)
	// The fixed bound must win regardless of the caller's timestamp.
	far := timebase.Exact(1 << 40)
	got := prelimUB(o, old, far, nil, clock)
	if got != *old.until.Load() {
		t.Errorf("prelimUB(superseded) = %v, want fixed bound %v", got, *old.until.Load())
	}
}

func TestPrelimUBOpenVersionReturnsCallerTime(t *testing.T) {
	rt := counterRT()
	o := NewObject(0)
	clock := rt.TimeBase().Clock(0)
	loc := o.settled(rt.maxVersions)
	ts := timebase.Exact(12345)
	if got := prelimUB(o, loc.head(), ts, nil, clock); got != ts {
		t.Errorf("prelimUB(open, no writer) = %v, want caller's %v", got, ts)
	}
}

func TestPrelimUBCommittingWriterBoundsByCT(t *testing.T) {
	rt := counterRT()
	o := NewObject(0)
	th := rt.Thread(0)

	// Drive a transaction manually into the committing state.
	w := th.newTx(false)
	if err := w.Write(o, 42); err != nil {
		t.Fatal(err)
	}
	if !w.status.CompareAndSwap(int32(StatusActive), int32(StatusCommitting)) {
		t.Fatal("could not enter committing")
	}
	clock := rt.TimeBase().Clock(1)
	loc := o.loc.Load()
	if loc.writer != w {
		t.Fatal("writer not registered")
	}
	// A foreign observer: the bound must be the writer's CT − 1, and CT
	// must have been helped into place.
	ts := timebase.Exact(1 << 40)
	got := prelimUB(o, loc.head(), ts, nil, clock)
	ct := w.CT()
	if ct.IsZero() {
		t.Fatal("prelimUB did not ensure the committing writer's CT")
	}
	if got != ct.Pred() {
		t.Errorf("foreign bound = %v, want CT−1 = %v", got, ct.Pred())
	}
	// The writer itself sees CT for the version it supersedes (the
	// deliberate off-by-one).
	if got := prelimUB(o, loc.head(), ts, w, clock); got != ct {
		t.Errorf("own bound = %v, want CT = %v", got, ct)
	}
	// Finish the commit so the object is usable again.
	if !w.finishCommit(clock) {
		t.Fatal("helped commit failed")
	}
	if got := mustReadInt(t, rt, o); got != 42 {
		t.Errorf("value = %d, want 42", got)
	}
}

func TestHelpCompletesStalledCommit(t *testing.T) {
	// A transaction parked in committing (owner "preempted") must be
	// finished by the first reader that needs the object.
	rt := counterRT()
	o := NewObject(0)
	th := rt.Thread(0)
	w := th.newTx(false)
	if err := w.Write(o, 5); err != nil {
		t.Fatal(err)
	}
	if !w.status.CompareAndSwap(int32(StatusActive), int32(StatusCommitting)) {
		t.Fatal("could not enter committing")
	}
	// A reader on another thread: getVersion must help w to completion and
	// return the new version.
	th2 := rt.Thread(1)
	var got int
	if err := th2.Run(func(tx *Tx) error {
		v, err := tx.Read(o)
		if err != nil {
			return err
		}
		got = v.(int)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("read %d, want helped-commit value 5", got)
	}
	if w.Status() != StatusCommitted {
		t.Errorf("stalled writer status = %v, want committed", w.Status())
	}
	if th2.Stats().Helps == 0 {
		t.Error("reader did not record a help")
	}
}

func TestClosedTransactionSkipsExtension(t *testing.T) {
	rt := counterRT()
	a, b := NewObject(0), NewObject(0)
	th := rt.Thread(0)
	th2 := rt.Thread(1)
	attempt := 0
	if err := th.Run(func(tx *Tx) error {
		attempt++
		if _, err := tx.Read(a); err != nil {
			return err
		}
		if attempt == 1 {
			// Supersede a: the transaction becomes closed on its next
			// extension attempt.
			if err := th2.Run(func(tx2 *Tx) error { return tx2.Write(a, 1) }); err != nil {
				t.Fatal(err)
			}
			// Also advance b so reading it forces an extension attempt.
			if err := th2.Run(func(tx2 *Tx) error { return tx2.Write(b, 1) }); err != nil {
				t.Fatal(err)
			}
		}
		_, err := tx.Read(b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if attempt < 2 {
		t.Fatalf("expected at least one snapshot abort, got %d attempts", attempt)
	}
}

func TestEnsureCTIdempotent(t *testing.T) {
	rt := counterRT()
	th := rt.Thread(0)
	w := th.newTx(false)
	w.update = true
	if !w.status.CompareAndSwap(int32(StatusActive), int32(StatusCommitting)) {
		t.Fatal("could not enter committing")
	}
	clockA := rt.TimeBase().Clock(1)
	clockB := rt.TimeBase().Clock(2)
	ensureCT(w, clockA)
	first := w.CT()
	if first.IsZero() {
		t.Fatal("CT not set")
	}
	ensureCT(w, clockB)
	if w.CT() != first {
		t.Errorf("second ensureCT changed CT: %v → %v", first, w.CT())
	}
}

func TestConcurrentEnsureCTSingleWinner(t *testing.T) {
	rt := counterRT()
	for round := 0; round < 50; round++ {
		th := rt.Thread(0)
		w := th.newTx(false)
		w.update = true
		w.status.Store(int32(StatusCommitting))
		var wg sync.WaitGroup
		cts := make([]timebase.Timestamp, 4)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ensureCT(w, rt.TimeBase().Clock(i))
				cts[i] = w.CT()
			}(i)
		}
		wg.Wait()
		for i := 1; i < 4; i++ {
			if cts[i] != cts[0] {
				t.Fatalf("round %d: helpers observed different CTs: %v vs %v", round, cts[0], cts[i])
			}
		}
	}
}

// TestSequentialFuzzAgainstModel drives random single-threaded operation
// sequences and cross-checks every read against a plain map model. It
// catches bookkeeping bugs (read-own-write, upgrade, double write, rollback)
// that structured tests might miss.
func TestSequentialFuzzAgainstModel(t *testing.T) {
	rt := counterRT()
	const nObjs = 8
	objs := make([]*Object, nObjs)
	model := make([]int, nObjs)
	for i := range objs {
		objs[i] = NewObject(i * 100)
		model[i] = i * 100
	}
	th := rt.Thread(0)
	rng := rand.New(rand.NewSource(99))
	boom := errors.New("rollback")
	for step := 0; step < 2000; step++ {
		scratch := append([]int(nil), model...)
		willAbort := rng.Intn(5) == 0
		nops := 1 + rng.Intn(6)
		err := th.Run(func(tx *Tx) error {
			for k := 0; k < nops; k++ {
				i := rng.Intn(nObjs)
				if rng.Intn(2) == 0 {
					v, err := tx.Read(objs[i])
					if err != nil {
						return err
					}
					if v.(int) != scratch[i] {
						t.Fatalf("step %d: read objs[%d] = %v, model %d", step, i, v, scratch[i])
					}
				} else {
					scratch[i] += 1 + rng.Intn(9)
					if err := tx.Write(objs[i], scratch[i]); err != nil {
						return err
					}
				}
			}
			if willAbort {
				return boom
			}
			return nil
		})
		switch {
		case willAbort && errors.Is(err, boom):
			// Rolled back: model unchanged.
		case !willAbort && err == nil:
			model = scratch
		default:
			t.Fatalf("step %d: err = %v, willAbort = %v", step, err, willAbort)
		}
	}
	// Final state check.
	for i, o := range objs {
		if got := mustReadInt(t, rt, o); got != model[i] {
			t.Errorf("objs[%d] = %d, model %d", i, got, model[i])
		}
	}
}
