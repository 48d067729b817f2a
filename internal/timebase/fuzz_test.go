package timebase

import "testing"

// FuzzShardedCounterOrdering drives a ShardedCounter with an arbitrary
// sequential interleaving of GetNewTS/GetTime calls across several
// handles and checks the ordering contract every time base owes: a GetNewTS
// value issued earlier is never guaranteed-later (⪰) than one issued
// afterwards — neither within a shard (exact comparison) nor across shards
// (masked comparison) — and values stay unique as (shard, epoch) pairs.
func FuzzShardedCounterOrdering(f *testing.F) {
	f.Add(uint8(2), uint8(4), []byte{0, 1, 2, 3, 0, 0, 1, 2})
	f.Add(uint8(4), uint8(16), []byte{3, 3, 3, 0, 7, 7, 7, 1, 11, 11, 2})
	f.Add(uint8(1), uint8(0), []byte{0, 4, 8, 0, 4, 8})
	f.Fuzz(func(t *testing.T, nshards, window uint8, ops []byte) {
		shards := int(nshards%8) + 1
		sc := NewShardedCounter(shards, int64(window))
		ord := OrderOf(sc)
		clocks := make([]Clock, 2*shards) // two handles per shard
		for i := range clocks {
			clocks[i] = sc.Clock(i)
		}
		type issued struct {
			ts Timestamp
			op int
		}
		var news []issued
		if len(ops) > 512 {
			ops = ops[:512]
		}
		for i, b := range ops {
			c := clocks[int(b>>2)%len(clocks)]
			switch b & 3 {
			case 0, 1:
				news = append(news, issued{c.GetNewTS(), i})
			case 2, 3:
				ts := c.GetTime()
				if !ord.LaterEq(ts, Zero) {
					t.Fatalf("op %d: GetTime %v not ⪰ Zero", i, ts)
				}
			}
		}
		seen := make(map[Timestamp]int, len(news))
		for i, n := range news {
			if j, dup := seen[n.ts]; dup {
				t.Fatalf("ops %d and %d issued the same (shard, epoch) pair %v",
					news[j].op, n.op, n.ts)
			}
			seen[n.ts] = i
			// No earlier GetNewTS may be guaranteed-later than a later one:
			// that would let a commit time order before an older commit.
			for _, earlier := range news[:i] {
				if ord.LaterEq(earlier.ts, n.ts) {
					t.Fatalf("op %d issued %v ⪰ later op %d's %v",
						earlier.op, earlier.ts, n.op, n.ts)
				}
			}
		}
	})
}

// FuzzComparatorInvariants drives the ⪰/≿/Max/Min operators of one base
// with arbitrary timestamp pairs and checks the invariants that hold at the
// operator level regardless of hidden real times. The deviation is drawn
// once per input, for the whole base, matching how time bases advertise it.
// Every stamp in the issued range must also survive the word packing the
// core publishes stamps in, and never pack to the unset word 0.
func FuzzComparatorInvariants(f *testing.F) {
	f.Add(uint16(0), int64(5), int32(0), int64(7), int32(0))
	f.Add(uint16(3), int64(10), int32(1), int64(12), int32(2))
	f.Add(uint16(7), int64(100), int32(-1), int64(100), int32(-1))
	f.Add(uint16(9), int64(1), int32(3), int64(1<<40), int32(3))
	f.Add(uint16(0), int64(0), int32(0), int64(1), int32(126))
	f.Fuzz(func(t *testing.T, dev uint16, ts1 int64, cid1 int32, ts2 int64, cid2 int32) {
		o := Order{dev: int64(dev % 1000)}
		norm := func(ts int64, cid int32) Timestamp {
			if ts < 0 {
				ts = -ts
			}
			ts = ts%1_000_000 + 1
			switch {
			case cid == CIDExact:
				return Exact(ts)
			case cid < 0:
				return Timestamp{TS: ts, CID: CIDUndefined}
			default:
				return Timestamp{TS: ts, CID: cid%MaxCID + 1}
			}
		}
		a, b := norm(ts1, cid1), norm(ts2, cid2)

		// ⪰ and ≿ are complementary in the required direction (§2.1):
		// b ⪰ a ⟹ ¬(a ≿ b), and a ≿ b ⟹ ¬(b ⪰ a).
		if o.LaterEq(b, a) && o.PossiblyLater(a, b) {
			t.Fatalf("dev %d: %v ⪰ %v and %v ≿ %v simultaneously", o.dev, b, a, a, b)
		}
		// At least one direction of "possibly later" always holds.
		if !o.PossiblyLater(a, b) && !o.PossiblyLater(b, a) && !o.LaterEq(a, b) && !o.LaterEq(b, a) {
			t.Fatalf("dev %d: no relation at all between %v and %v", o.dev, a, b)
		}
		// Max keeps the larger TS, Min the smaller.
		m, n := o.Max(a, b), o.Min(a, b)
		if m.TS != max(a.TS, b.TS) || n.TS != min(a.TS, b.TS) {
			t.Fatalf("dev %d: Max/Min(%v,%v) = %v/%v", o.dev, a, b, m, n)
		}
		// Max/Min never return sentinels unless an argument was one.
		if m.IsInf() || m.IsNegInf() || n.IsInf() || n.IsNegInf() {
			t.Fatalf("sentinel from Max/Min of %v, %v", a, b)
		}
		// Without deviation the order is the plain tick comparison.
		if o.dev == 0 && o.LaterEq(a, b) != (a.TS >= b.TS) {
			t.Fatalf("exact ⪰ disagrees with ≥ for %v, %v", a, b)
		}
		for _, ts := range []Timestamp{a, b, m, n} {
			if FromWord(ts.Word()) != ts || ts.Word() == 0 {
				t.Fatalf("%v packs to word %d, unpacks to %v", ts, ts.Word(), FromWord(ts.Word()))
			}
		}
	})
}
