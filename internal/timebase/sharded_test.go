package timebase

import (
	"sync"
	"testing"
)

// TestShardedNewTSUniquePairs: GetNewTS values are unique as (shard, epoch)
// pairs — per shard by the strictly increasing counter RMWs, across shards
// by the distinct clock IDs — even with several threads per shard racing.
func TestShardedNewTSUniquePairs(t *testing.T) {
	sc := NewShardedCounter(4, 32)
	const workers, per = 8, 2000 // 2 threads per shard
	out := make([][]Timestamp, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := sc.Clock(w)
			vals := make([]Timestamp, 0, per)
			for i := 0; i < per; i++ {
				vals = append(vals, c.GetNewTS())
			}
			out[w] = vals
		}(w)
	}
	wg.Wait()
	type pair struct {
		cid int32
		ts  int64
	}
	if sc.Deviation() != sc.Window()/2 {
		t.Fatalf("Deviation %d, want window/2 = %d", sc.Deviation(), sc.Window()/2)
	}
	seen := make(map[pair]bool, workers*per)
	for w, vals := range out {
		for _, v := range vals {
			p := pair{v.CID, v.TS}
			if seen[p] {
				t.Fatalf("worker %d: duplicate (shard, epoch) pair %v", w, v)
			}
			seen[p] = true
		}
	}
}

// TestShardedMonotonicPerThread: within one handle, GetNewTS is strictly
// increasing and GetTime never goes backwards.
func TestShardedMonotonicPerThread(t *testing.T) {
	sc := NewShardedCounter(3, 16)
	c := sc.Clock(1)
	last := c.GetTime()
	for i := 0; i < 1000; i++ {
		var cur Timestamp
		switch i % 4 {
		case 0:
			cur = c.GetNewTS()
			if cur.TS <= last.TS {
				t.Fatalf("iteration %d: GetNewTS %v not strictly greater than %v", i, cur, last)
			}
		default:
			cur = c.GetTime()
		}
		if cur.TS < last.TS {
			t.Fatalf("iteration %d: timestamp went backwards %v → %v", i, last, cur)
		}
		if cur.CID != last.CID {
			t.Fatalf("iteration %d: clock ID changed %v → %v", i, last, cur)
		}
		last = cur
	}
}

// TestShardedWindowInvariant: single-threaded, the distance between any
// shard and the epoch base never exceeds the window — the invariant the
// masked ⪰ soundness argument rests on.
func TestShardedWindowInvariant(t *testing.T) {
	sc := NewShardedCounter(4, 32)
	clocks := make([]Clock, 4)
	for i := range clocks {
		clocks[i] = sc.Clock(i)
	}
	check := func(step int) {
		base := sc.Base()
		for s := 0; s < sc.Shards(); s++ {
			v := sc.shards[s].c.Load()
			if v-base > sc.Window() {
				t.Fatalf("step %d: shard %d at %d runs %d ahead of base %d (window %d)",
					step, s, v, v-base, base, sc.Window())
			}
		}
	}
	for i := 0; i < 5000; i++ {
		c := clocks[(i*7)%4]
		switch i % 5 {
		case 0, 1, 2:
			c.GetNewTS()
		default:
			c.GetTime()
		}
		check(i)
	}
}

// TestShardedIssueBoundUnderContention hammers GetTime/GetNewTS
// from several threads per shard and checks the soundness invariant on
// every issued timestamp: its value never exceeds base+window, where base
// is read after the issuing call returns. Since the base is monotone, a
// violation proves the timestamp was above base+window at issue time —
// exactly the mid-flight gap (shard incremented, base not yet raised)
// that GetTime's clamp exists to close; an unclamped read from that gap
// would order, under masking, ahead of timestamps other shards issue
// later, letting a transaction accept a version committed after it began.
func TestShardedIssueBoundUnderContention(t *testing.T) {
	sc := NewShardedCounter(2, 4) // tiny window: the gap is one Add away
	const workers, per = 8, 5000  // 4 threads per shard stack increments
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := sc.Clock(w)
			for i := 0; i < per; i++ {
				var ts Timestamp
				switch i % 4 {
				case 0:
					ts = c.GetNewTS()
				default:
					ts = c.GetTime()
				}
				if lim := sc.Base() + sc.Window(); ts.TS > lim {
					t.Errorf("worker %d: issued %v above base+window = %d at issue time", w, ts, lim)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestShardedTimestampsDominateZero: every issued timestamp must be ⪰ the
// Zero sentinel even under full cross-clock masking, so "commit time not
// yet chosen" never aliases a real time.
func TestShardedTimestampsDominateZero(t *testing.T) {
	sc := NewShardedCounter(2, 64)
	for id := 0; id < 2; id++ {
		c := sc.Clock(id)
		for _, ts := range []Timestamp{c.GetTime(), c.GetNewTS()} {
			if !OrderOf(sc).LaterEq(ts, Zero) {
				t.Fatalf("clock %d issued %v not ⪰ Zero", id, ts)
			}
			if ts.IsZero() {
				t.Fatalf("clock %d issued the Zero sentinel", id)
			}
		}
	}
}

// TestShardedSingleShardDegeneratesToCounter: with one shard every handle
// aliases the same word, values strictly increase under concurrency, and
// same-CID comparisons are exact — the SharedCounter behaviour with a
// Deviation that same-shard comparison never consults.
func TestShardedSingleShardDegeneratesToCounter(t *testing.T) {
	sc := NewShardedCounter(1, 8)
	const workers, per = 4, 1000
	var wg sync.WaitGroup
	seen := make([][]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := sc.Clock(w)
			for i := 0; i < per; i++ {
				seen[w] = append(seen[w], c.GetNewTS().TS)
			}
		}(w)
	}
	wg.Wait()
	all := make(map[int64]bool, workers*per)
	for _, vals := range seen {
		for _, v := range vals {
			if all[v] {
				t.Fatalf("duplicate value %d on a single shard", v)
			}
			all[v] = true
		}
	}
}

// TestShardedConstructorNormalization: degenerate parameters are clamped,
// and odd windows round up to keep Deviation = window/2 conservative.
func TestShardedConstructorNormalization(t *testing.T) {
	if sc := NewShardedCounter(0, 0); sc.Shards() != 1 || sc.Window() != DefaultShardWindow {
		t.Errorf("NewShardedCounter(0,0) = %d shards, window %d", sc.Shards(), sc.Window())
	}
	// Past MaxCID the shards would run out of clock IDs.
	sc := NewShardedCounter(MaxCID+50, 0)
	if sc.Shards() != MaxCID {
		t.Errorf("NewShardedCounter(%d, 0) = %d shards, want MaxCID = %d", MaxCID+50, sc.Shards(), MaxCID)
	}
	if ts := sc.Clock(MaxCID - 1).GetNewTS(); ts.CID != MaxCID || FromWord(ts.Word()) != ts {
		t.Errorf("last shard's stamp %v does not round-trip its word", ts)
	}
	if sc := NewShardedCounter(3, 7); sc.Window() != 8 {
		t.Errorf("odd window not rounded up: %d", sc.Window())
	}
	if sc := NewShardedCounter(2, 16); sc.Name() == "" {
		t.Error("empty name")
	}
}
