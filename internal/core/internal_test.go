package core

// White-box tests for the engine's internal mechanisms: locator settling,
// version-chain trimming, preliminary upper bounds, commit helping, and the
// "closed transaction" optimization. These pin down behaviours the
// black-box tests only exercise probabilistically.

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
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
	loc := o.settled(rt.maxVersions, nil)
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
	ub := old.upperBound()
	if ub.IsInf() {
		t.Fatal("superseded version has no fixed upper bound")
	}
	if want := loc.head().validFrom().Pred(); ub != want {
		t.Errorf("old version UB = %v, want %v", ub, want)
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
	loc := o.settled(rt.maxVersions, nil)
	if loc.writer != nil {
		t.Fatal("aborted writer not cleaned")
	}
	if loc.head().value.Load().(int) != 7 {
		t.Errorf("value = %v, want original 7", loc.head().value)
	}
	if loc.head().until.Load() != 0 {
		t.Error("current version got an upper bound from an aborted commit")
	}
}

// zeroBase is an exact time base whose one clock starts at 0, as a
// hardware clock read right after power-on does: its first GetNewTS issues
// commit time 1, whose predecessor bound 0 packs to the unset word.
type zeroBase struct{ c atomic.Int64 }

func (b *zeroBase) Clock(int) timebase.Clock     { return b }
func (b *zeroBase) Name() string                 { return "zero" }
func (b *zeroBase) Deviation() int64             { return 0 }
func (b *zeroBase) GetTime() timebase.Timestamp  { return timebase.Exact(b.c.Load()) }
func (b *zeroBase) GetNewTS() timebase.Timestamp { return timebase.Exact(b.c.Add(1)) }

// TestSettleCommitTimeOne: a version superseded at CT 1 ends at 0 — not at
// ∞, which is what storing CT−1 as a word would publish, since 0 is the
// "unset" word.
func TestSettleCommitTimeOne(t *testing.T) {
	rt := MustRuntime(Config{TimeBase: &zeroBase{}})
	o := NewObject(1)
	genesis := o.loc.Load().ver
	w := rt.Thread(0).newTx(false)
	mustWrite(t, w, o, 2)
	if err := w.commit(); err != nil {
		t.Fatal(err)
	}
	if w.CT() != timebase.Exact(1) {
		t.Fatalf("CT = %v, want 1", w.CT())
	}
	head := o.settled(rt.maxVersions, nil).ver
	if got := genesis.upperBound(); got != timebase.Exact(0) {
		t.Errorf("predecessor's upper bound = %v, want 0", got)
	}
	if got := head.validFrom(); got != w.CT() {
		t.Errorf("head validFrom = %v, want CT %v", got, w.CT())
	}
}

// TestSettleRace: racing settlers of one committed writer CAS the same
// words from 0, so every one of them returns the same head, stamped with
// the writer's CT over a predecessor bounded at CT−1 — from the first
// commit (CT 1, the zero-word case) on.
func TestSettleRace(t *testing.T) {
	rt := MustRuntime(Config{TimeBase: &zeroBase{}})
	th := rt.Thread(0)
	const racers = 8
	for round := 0; round < 200; round++ {
		o := NewObject(0)
		base := o.loc.Load().ver
		w := th.newTx(false)
		mustWrite(t, w, o, round)
		if err := w.commit(); err != nil {
			t.Fatal(err)
		}
		var start, done sync.WaitGroup
		start.Add(1)
		heads := make([]*locator, racers)
		for i := range heads {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				start.Wait()
				heads[i] = o.settled(rt.maxVersions, nil)
			}(i)
		}
		start.Done()
		done.Wait()
		ct := w.CT()
		for i, loc := range heads {
			if loc != heads[0] || loc.writer != nil {
				t.Fatalf("round %d: racer %d settled to %p (writer %v), racer 0 to %p", round, i, loc, loc.writer, heads[0])
			}
		}
		if got := heads[0].ver.validFrom(); got != ct {
			t.Fatalf("round %d: head validFrom = %v, want CT %v", round, got, ct)
		}
		if got := base.upperBound(); got != ct.Pred() {
			t.Fatalf("round %d: predecessor bounded at %v, want %v", round, got, ct.Pred())
		}
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
	loc := o.settled(maxV, nil)
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
	loc := o.settled(8, nil)
	prevFrom := timebase.Inf
	want := 6
	for v := loc.head(); v != nil; v = v.prev.Load() {
		if !rt.ord.LaterEq(prevFrom, v.validFrom()) {
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
	loc := o.settled(rt.maxVersions, nil)
	old := loc.head().prev.Load()
	obs := rt.Thread(9)
	// The fixed bound must win regardless of the caller's timestamp.
	far := timebase.Exact(1 << 40)
	got := prelimUB(o, old, far, nil, obs)
	if got != old.upperBound() {
		t.Errorf("prelimUB(superseded) = %v, want fixed bound %v", got, old.upperBound())
	}
}

func TestPrelimUBOpenVersionReturnsCallerTime(t *testing.T) {
	rt := counterRT()
	o := NewObject(0)
	obs := rt.Thread(0)
	loc := o.settled(rt.maxVersions, nil)
	ts := timebase.Exact(12345)
	if got := prelimUB(o, loc.head(), ts, nil, obs); got != ts {
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
	obs := rt.Thread(1)
	loc := o.loc.Load()
	if loc.writer != w {
		t.Fatal("writer not registered")
	}
	// A foreign observer: the bound must be the writer's CT − 1, and CT
	// must have been helped into place.
	ts := timebase.Exact(1 << 40)
	got := prelimUB(o, loc.head(), ts, nil, obs)
	ct := w.CT()
	if ct.IsZero() {
		t.Fatal("prelimUB did not ensure the committing writer's CT")
	}
	if got != ct.Pred() {
		t.Errorf("foreign bound = %v, want CT−1 = %v", got, ct.Pred())
	}
	// The writer itself sees CT for the version it supersedes (the
	// deliberate off-by-one).
	if got := prelimUB(o, loc.head(), ts, w, obs); got != ct {
		t.Errorf("own bound = %v, want CT = %v", got, ct)
	}
	// Finish the commit so the object is usable again.
	if !w.finishCommit(obs) {
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
