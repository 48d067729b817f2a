// Package timebase provides the timestamps and pluggable time bases used by
// the LSA-RT software transactional memory (Riegel, Fetzer, Felber — "Time-based
// Transactional Memory with Scalable Time Bases", SPAA 2007).
//
// A time base imposes a total order on transaction commits and object
// versions. The paper's key observation is that the time base does not have
// to be a shared integer counter: any clock whose reading error is bounded
// works, provided the comparison operators mask the uncertainty. This package
// implements the generic utility functions of Algorithm 1 (Order) and the
// concrete function sets for perfectly synchronized clocks (Algorithm 4) and
// externally synchronized clocks (Algorithm 5).
package timebase

import (
	"fmt"
	"math"
)

// CIDUndefined marks a timestamp whose origin clock is no longer known, e.g.
// the result of Max/Min over timestamps from different clocks (Algorithm 5
// lines 23/25). Comparisons against such a timestamp must always take the
// deviation into account, even against timestamps from the same clock the
// value originally came from.
const CIDUndefined int32 = -1

// CIDExact is the clock ID shared by all exact time bases (shared counters,
// perfectly synchronized clocks). Two exact timestamps always compare by
// value, which makes Algorithm 5 degenerate to Algorithm 4.
const CIDExact int32 = 0

// MaxCID is the largest clock ID a stamp word carries (see Word): the low 7
// bits of a word hold the ID, and the all-ones pattern is CIDUndefined.
// Time bases with one clock ID per node refuse (ExtSyncClock) or clamp
// (ShardedCounter) more nodes than this.
const MaxCID = cidMask - 1

const (
	cidBits = 7
	cidMask = 1<<cidBits - 1
)

// infTS is the sentinel tick value representing "still valid" (∞): the upper
// bound of the validity range of a version that has not been superseded.
const infTS int64 = math.MaxInt64

// negInfTS is the sentinel tick value representing "since forever" (−∞): the
// lower bound of the validity range of an object's genesis version, which was
// valid before any transaction ran.
const negInfTS int64 = math.MinInt64

// Timestamp is a point of the time base, possibly imprecise. For exact time
// bases (counters, perfectly synchronized clocks) CID is CIDExact. For
// externally synchronized clocks a timestamp read at real time t carries the
// local clock value TS = ECp(t) and the reader's clock ID; how far TS may be
// from t is a property of the whole clock set, the base's Deviation (§3.2),
// so the comparison operators live on the base's Order, not here.
type Timestamp struct {
	// TS is the clock value in ticks of the time base.
	TS int64
	// CID identifies the clock the value was read from, CIDExact for exact
	// bases, or CIDUndefined once the origin has been mixed away by Max/Min.
	CID int32
}

// Inf is the timestamp "infinitely far in the future". It bounds the validity
// range of a version that is still the most recent committed one.
var Inf = Timestamp{TS: infTS, CID: CIDExact}

// NegInf is the timestamp "infinitely far in the past". It is the validity
// lower bound of an object's genesis version, so a transaction on any time
// base — including one whose clock values are still small compared to its
// deviation — can read freshly created objects.
var NegInf = Timestamp{TS: negInfTS, CID: CIDExact}

// Zero is the unset timestamp. Transactions use it as the "commit time not
// yet chosen" sentinel (T.CT ← 0 in Algorithm 2), so all time bases issue
// timestamps other than Zero — whose Word is therefore never 0.
var Zero = Timestamp{}

// Exact wraps a raw tick count as an exact timestamp (no reading error).
func Exact(ts int64) Timestamp { return Timestamp{TS: ts, CID: CIDExact} }

// IsInf reports whether t is the infinite future sentinel.
func (t Timestamp) IsInf() bool { return t.TS == infTS }

// IsNegInf reports whether t is the infinite past sentinel.
func (t Timestamp) IsNegInf() bool { return t.TS == negInfTS }

// IsZero reports whether t is the unset sentinel.
func (t Timestamp) IsZero() bool { return t == Zero }

// Word packs t into one int64, TS<<7 | CID — the versioned-lock-word
// encoding of TL2 — so a stamp can be published with a single atomic store
// or CAS. Only Zero packs to 0, which leaves 0 free as "unset". TS must fit
// in 56 bits; the ±∞ sentinels do not and are never packed.
func (t Timestamp) Word() int64 { return t.TS<<cidBits | int64(t.CID)&cidMask }

// FromWord unpacks a Word.
func FromWord(w int64) Timestamp {
	cid := int32(w & cidMask)
	if cid > MaxCID {
		cid = CIDUndefined
	}
	return Timestamp{TS: w >> cidBits, CID: cid}
}

// Pred returns the timestamp immediately preceding t in ticks. getPrelimUB
// uses it to bound a superseded version's validity at the writer's commit
// time minus one (Algorithm 3 line 29). Pred of the infinite or zero sentinel
// panics: those are never version bounds produced by a committing writer.
func (t Timestamp) Pred() Timestamp {
	if t.IsInf() || t.IsNegInf() || t.IsZero() {
		panic("timebase: Pred of sentinel timestamp " + t.String())
	}
	t.TS--
	return t
}

// String renders the timestamp for diagnostics.
func (t Timestamp) String() string {
	switch {
	case t.IsInf():
		return "∞"
	case t.IsNegInf():
		return "-∞"
	case t.CID == CIDExact:
		return fmt.Sprintf("%d", t.TS)
	default:
		return fmt.Sprintf("%d@c%d", t.TS, t.CID)
	}
}

// Order is the comparison operator set of one time base (Algorithm 1 lines
// 3–6 with Algorithm 5's masking): the deviation bound it masks is the
// base's, shared by every clock of the set. Build it once per base with
// OrderOf.
//
// With deviation 0 every operator is a plain tick comparison: the sentinels
// are the extreme tick values, so no sentinel or clock-ID test is needed.
type Order struct {
	dev int64
}

// OrderOf returns the comparison operators for tb's timestamps.
func OrderOf(tb TimeBase) Order { return Order{dev: tb.Deviation()} }

// LaterEq reports t1 ⪰ t2: t1 is guaranteed to have been read no earlier
// than t2 (the paper's "<" operator, Algorithm 1 line 3). For timestamps from
// the same known clock no deviation applies; across clocks (or when a clock
// ID has been erased by Max/Min) the deviation of both sides is masked
// (Algorithm 5 line 14).
//
// −∞ on the left or ∞ on the right holds only against itself; testing them
// unmasked also keeps the masked sums from overflowing.
func (o Order) LaterEq(t1, t2 Timestamp) bool {
	if o.dev == 0 || t1.CID == t2.CID && t1.CID != CIDUndefined || t1.IsNegInf() || t2.IsInf() {
		return t1.TS >= t2.TS
	}
	return t1.TS-o.dev >= t2.TS+o.dev
}

// PossiblyLater reports t1 ≿ t2: t1 was possibly read at a later point than
// t2 (Algorithm 1 lines 4–6). It is the negation of t2 ⪰ t1.
func (o Order) PossiblyLater(t1, t2 Timestamp) bool {
	return !o.LaterEq(t2, t1)
}

// Max returns a timestamp m such that any t3 ⪰ m is guaranteed to be later
// than both t1 and t2 (Algorithm 5 lines 17–27). If neither side dominates,
// the result keeps the larger TS and erases the clock ID so that future
// comparisons keep masking the uncertainty.
func (o Order) Max(t1, t2 Timestamp) Timestamp {
	switch {
	case o.LaterEq(t1, t2):
		return t1
	case o.LaterEq(t2, t1):
		return t2
	}
	return Timestamp{TS: max(t1.TS, t2.TS), CID: CIDUndefined}
}

// Min returns a timestamp m such that any t3 with m ⪰ t3 is guaranteed to be
// earlier than both t1 and t2 (Algorithm 5 lines 28–38). If neither side
// dominates, the result keeps the smaller TS and erases the clock ID.
func (o Order) Min(t1, t2 Timestamp) Timestamp {
	switch {
	case o.LaterEq(t1, t2):
		return t2
	case o.LaterEq(t2, t1):
		return t1
	}
	return Timestamp{TS: min(t1.TS, t2.TS), CID: CIDUndefined}
}
