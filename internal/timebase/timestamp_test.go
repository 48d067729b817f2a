package timebase

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genOrder draws one generated base's operators: exact (deviation 0) or a
// small deviation bound shared by every clock of the base.
func genOrder(r *rand.Rand) Order {
	if r.Intn(3) == 0 {
		return Order{}
	}
	return Order{dev: r.Int63n(10) + 1}
}

// genTS produces a random timestamp mixing exact, per-clock, and undefined
// clock IDs in a small value range so comparisons of all flavours occur.
func genTS(r *rand.Rand) Timestamp {
	switch r.Intn(5) {
	case 0:
		return Exact(r.Int63n(100) + 1)
	case 1:
		return Timestamp{TS: r.Int63n(100) + 1, CID: CIDUndefined}
	default:
		return Timestamp{TS: r.Int63n(100) + 1, CID: int32(1 + r.Intn(4))}
	}
}

// quickCfg makes testing/quick generate an Order (the first argument) and
// Timestamps (the rest) via genOrder and genTS.
var quickCfg = &quick.Config{
	MaxCount: 5000,
	Values: func(args []reflect.Value, r *rand.Rand) {
		args[0] = reflect.ValueOf(genOrder(r))
		for i := 1; i < len(args); i++ {
			args[i] = reflect.ValueOf(genTS(r))
		}
	},
}

func TestExactOrdering(t *testing.T) {
	var o Order
	a, b := Exact(5), Exact(7)
	if !o.LaterEq(b, a) {
		t.Errorf("7 ⪰ 5 must hold for exact timestamps")
	}
	if o.LaterEq(a, b) {
		t.Errorf("5 ⪰ 7 must not hold")
	}
	if !o.LaterEq(a, a) {
		t.Errorf("⪰ must be reflexive for exact timestamps")
	}
	if o.PossiblyLater(a, b) {
		t.Errorf("5 ≿ 7 must not hold: 7 is guaranteed later")
	}
	if !o.PossiblyLater(b, a) {
		t.Errorf("7 ≿ 5 must hold")
	}
}

func TestOrderOfTakesTheBaseDeviation(t *testing.T) {
	if got := OrderOf(NewSharedCounter()); got != (Order{}) {
		t.Errorf("OrderOf(SharedCounter) = %+v, want the exact order", got)
	}
	if got := OrderOf(NewShardedCounter(2, 16)); got.dev != 8 {
		t.Errorf("OrderOf(Sharded w=16) masks %d, want 8", got.dev)
	}
}

func TestInfinitySentinel(t *testing.T) {
	if !Inf.IsInf() {
		t.Fatal("Inf must report IsInf")
	}
	for _, o := range []Order{{}, {dev: 100}} {
		for _, ts := range []Timestamp{Exact(1), Exact(1 << 40), {TS: 3, CID: 2}} {
			if !o.LaterEq(Inf, ts) {
				t.Errorf("dev %d: ∞ ⪰ %v must hold", o.dev, ts)
			}
			if o.LaterEq(ts, Inf) {
				t.Errorf("dev %d: %v ⪰ ∞ must not hold", o.dev, ts)
			}
			if !o.PossiblyLater(ts, Zero) {
				t.Errorf("dev %d: %v ≿ 0 must hold", o.dev, ts)
			}
		}
		if !o.LaterEq(Inf, Inf) {
			t.Errorf("dev %d: ∞ ⪰ ∞ must hold", o.dev)
		}
	}
}

func TestDeviationMasking(t *testing.T) {
	// Two timestamps from different clocks of a base with deviation 5:
	// guaranteed order requires a gap of at least twice the deviation.
	o := Order{dev: 5}
	a := Timestamp{TS: 10, CID: 1}
	b := Timestamp{TS: 19, CID: 2}
	if o.LaterEq(b, a) {
		t.Errorf("19 ⪰ 10 must not hold across clocks: 19−5 < 10+5")
	}
	if !o.PossiblyLater(b, a) {
		t.Errorf("19 ≿ 10 must hold")
	}
	c := Timestamp{TS: 20, CID: 2}
	if !o.LaterEq(c, a) {
		t.Errorf("20 ⪰ 10 must hold across clocks: 20−5 ≥ 10+5")
	}
	// Same clock: no deviation applies (Algorithm 5 line 12).
	d := Timestamp{TS: 11, CID: 1}
	if !o.LaterEq(d, a) {
		t.Errorf("same-clock 11 ⪰ 10 must hold regardless of deviation")
	}
	// Undefined clock ID: deviation always applies, even to itself.
	u := Timestamp{TS: 10, CID: CIDUndefined}
	if o.LaterEq(u, u) {
		t.Errorf("10@undefined ⪰ itself must NOT hold: origin unknown")
	}
}

func TestLaterEqExcludesPossiblyLater(t *testing.T) {
	// t2 ⪰ t1 ⟹ ¬(t1 ≿ t2) and t2 ≿ t1 ⟹ ¬(t1 ⪰ t2) (§2.1).
	f := func(o Order, t1, t2 Timestamp) bool {
		if o.LaterEq(t2, t1) && o.PossiblyLater(t1, t2) {
			return false
		}
		if o.PossiblyLater(t2, t1) && o.LaterEq(t1, t2) {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestLaterEqTransitive(t *testing.T) {
	// ⪰ must be transitive: the STM chains guarantees across versions. One
	// deviation for every clock of the base is what makes it so at the
	// operator level.
	f := func(o Order, a, b, c Timestamp) bool {
		if o.LaterEq(a, b) && o.LaterEq(b, c) {
			return o.LaterEq(a, c)
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// stamped is a timestamp together with the hidden real time at which it was
// read. The ⪰/Max/Min guarantees of §2.1 are statements about these hidden
// real times; the operators themselves are sound but deliberately incomplete
// (they may fail to detect an ordering that same-clock reasoning would give).
type stamped struct {
	ts   Timestamp
	real int64
}

// genBase draws one base: its operators and, per clock, a constant offset
// from real time bounded by the base's deviation.
func genBase(r *rand.Rand) (Order, map[int32]int64) {
	o := Order{dev: r.Int63n(16)}
	offsets := map[int32]int64{}
	for cid := int32(1); cid <= 3; cid++ {
		offsets[cid] = r.Int63n(2*o.dev+1) - o.dev
	}
	return o, offsets
}

// genStamped models clocks as monotone functions of real time with a
// constant per-clock offset, then reads one timestamp at a random real time.
// Exact clocks (CIDExact) have zero offset.
func genStamped(r *rand.Rand, offsets map[int32]int64) stamped {
	real := r.Int63n(200) + 1
	if r.Intn(4) == 0 {
		return stamped{ts: Exact(real), real: real}
	}
	cid := int32(1 + r.Intn(3))
	return stamped{ts: Timestamp{TS: real + offsets[cid], CID: cid}, real: real}
}

func TestLaterEqSoundAgainstHiddenTruth(t *testing.T) {
	// a ⪰ b must imply real(a) ≥ real(b): the operator may miss orderings,
	// but must never invent one.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		o, offsets := genBase(r)
		a := genStamped(r, offsets)
		b := genStamped(r, offsets)
		if o.LaterEq(a.ts, b.ts) && a.real < b.real {
			t.Fatalf("dev %d: unsound ⪰: %v (real %d) claimed ⪰ %v (real %d)", o.dev, a.ts, a.real, b.ts, b.real)
		}
	}
}

func TestMaxSemantics(t *testing.T) {
	// §2.1: if t3 ⪰ max(t1,t2) then t3 is guaranteed later than both t1 and
	// t2 — a statement about hidden real read times, which is weaker than
	// operator-level closure (same-clock comparisons carry information the
	// cross-clock value test cannot reconstruct).
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		o, offsets := genBase(r)
		t1 := genStamped(r, offsets)
		t2 := genStamped(r, offsets)
		t3 := genStamped(r, offsets)
		m := o.Max(t1.ts, t2.ts)
		if o.LaterEq(t3.ts, m) && (t3.real < t1.real || t3.real < t2.real) {
			t.Fatalf("dev %d: Max unsound: t3=%v (real %d) ⪰ Max(%v real %d, %v real %d) = %v",
				o.dev, t3.ts, t3.real, t1.ts, t1.real, t2.ts, t2.real, m)
		}
	}
}

func TestMinSemantics(t *testing.T) {
	// §2.1: if min(t1,t2) ⪰ t3 then t3 is guaranteed earlier than both.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		o, offsets := genBase(r)
		t1 := genStamped(r, offsets)
		t2 := genStamped(r, offsets)
		t3 := genStamped(r, offsets)
		m := o.Min(t1.ts, t2.ts)
		if o.LaterEq(m, t3.ts) && (t3.real > t1.real || t3.real > t2.real) {
			t.Fatalf("dev %d: Min unsound: Min(%v real %d, %v real %d) = %v ⪰ t3=%v (real %d)",
				o.dev, t1.ts, t1.real, t2.ts, t2.real, m, t3.ts, t3.real)
		}
	}
}

func TestMaxMinExactDegenerate(t *testing.T) {
	// For exact timestamps Max/Min are plain max/min (Algorithm 4).
	var o Order
	if got := o.Max(Exact(3), Exact(9)); got != Exact(9) {
		t.Errorf("Max(3,9) = %v, want 9", got)
	}
	if got := o.Min(Exact(3), Exact(9)); got != Exact(3) {
		t.Errorf("Min(3,9) = %v, want 3", got)
	}
	if got := o.Max(Exact(4), Inf); got != Inf {
		t.Errorf("Max(4,∞) = %v, want ∞", got)
	}
	if got := o.Min(Exact(4), Inf); got != Exact(4) {
		t.Errorf("Min(4,∞) = %v, want 4", got)
	}
}

func TestMaxMixedClocksErasesCID(t *testing.T) {
	o := Order{dev: 3}
	a := Timestamp{TS: 10, CID: 1}
	b := Timestamp{TS: 11, CID: 2}
	if m := o.Max(a, b); m != (Timestamp{TS: 11, CID: CIDUndefined}) {
		t.Errorf("Max of overlapping cross-clock timestamps = %v, want the larger TS 11 with the CID erased", m)
	}
	if n := o.Min(a, b); n != (Timestamp{TS: 10, CID: CIDUndefined}) {
		t.Errorf("Min of overlapping cross-clock timestamps = %v, want the smaller TS 10 with the CID erased", n)
	}
}

func TestPred(t *testing.T) {
	p := Exact(5).Pred()
	if p != Exact(4) {
		t.Errorf("Pred(5) = %v, want 4", p)
	}
	it := Timestamp{TS: 9, CID: 2}
	if got := it.Pred(); got.TS != 8 || got.CID != 2 {
		t.Errorf("Pred must only decrement TS, got %v", got)
	}
	for _, bad := range []Timestamp{Inf, Zero} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pred(%v) must panic", bad)
				}
			}()
			bad.Pred()
		}()
	}
}

func TestStringForms(t *testing.T) {
	cases := map[string]Timestamp{
		"∞":     Inf,
		"0":     Zero,
		"42":    Exact(42),
		"7@c3":  {TS: 7, CID: 3},
		"7@c-1": {TS: 7, CID: CIDUndefined},
	}
	for want, ts := range cases {
		if got := ts.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", ts, got, want)
		}
	}
}

func TestWordRoundTrip(t *testing.T) {
	for _, ts := range []Timestamp{
		Zero, Exact(0), Exact(1), Exact(1<<55 - 1), Exact(-3),
		{TS: 0, CID: 1}, {TS: 7, CID: MaxCID}, {TS: -7, CID: 5}, {TS: 7, CID: CIDUndefined},
	} {
		if got := FromWord(ts.Word()); got != ts {
			t.Errorf("FromWord(%v.Word()) = %v", ts, got)
		}
		if (ts.Word() == 0) != ts.IsZero() {
			t.Errorf("%v.Word() = %d: only Zero may pack to 0", ts, ts.Word())
		}
	}
}

func TestZeroIsEarliest(t *testing.T) {
	f := func(o Order, ts Timestamp) bool {
		// All issued timestamps have TS ≥ 1, so with dev ≥ 1 they are
		// possibly later than Zero; exact ones are guaranteed later.
		if ts.CID == CIDExact {
			return o.LaterEq(ts, Zero)
		}
		return o.PossiblyLater(ts, Zero)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestNegInfSentinel(t *testing.T) {
	if !NegInf.IsNegInf() {
		t.Fatal("NegInf must report IsNegInf")
	}
	for _, o := range []Order{{}, {dev: 100}} {
		for _, ts := range []Timestamp{Exact(1), Zero, Inf, {TS: 3, CID: 2}} {
			if !o.LaterEq(ts, NegInf) {
				t.Errorf("dev %d: %v ⪰ -∞ must hold", o.dev, ts)
			}
			if o.LaterEq(NegInf, ts) {
				t.Errorf("dev %d: -∞ ⪰ %v must not hold", o.dev, ts)
			}
		}
		if !o.LaterEq(NegInf, NegInf) {
			t.Errorf("dev %d: -∞ ⪰ -∞ must hold", o.dev)
		}
		if got := o.Max(NegInf, Exact(5)); got != Exact(5) {
			t.Errorf("dev %d: Max(-∞, 5) = %v, want 5", o.dev, got)
		}
		if got := o.Min(NegInf, Exact(5)); got != NegInf {
			t.Errorf("dev %d: Min(-∞, 5) = %v, want -∞", o.dev, got)
		}
	}
	if Inf.String() != "∞" || NegInf.String() != "-∞" {
		t.Errorf("sentinel strings: %q, %q", Inf.String(), NegInf.String())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Pred(-∞) must panic")
			}
		}()
		NegInf.Pred()
	}()
}

func TestGenesisReadableUnderLargeDeviation(t *testing.T) {
	// A freshly created object's genesis version (validFrom = -∞) must be
	// readable even by a clock whose value is tiny compared to its
	// deviation — the scenario that motivated the -∞ sentinel.
	early := Timestamp{TS: 3, CID: 1}
	if !(Order{dev: 1000}).LaterEq(early, NegInf) {
		t.Error("small-value high-deviation timestamp must be ⪰ -∞")
	}
}
