package timebase

import (
	"fmt"
	"sync/atomic"
)

// DefaultShardWindow is the default epoch window of NewShardedCounter, in
// ticks. Larger windows touch the shared epoch base less often but widen
// the masked uncertainty gap 2·dev = window.
const DefaultShardWindow = 32

// ShardedCounter is a software counter sharded for commit scaling: instead
// of one integer whose cache line every commit invalidates system-wide,
// time is kept in N cache-line-padded per-shard counters. GetNewTS bumps
// only the caller's shard — an uncontended fetch-and-add for workers on
// distinct shards — and the shards are lazily synchronized through a shared
// epoch base that is written only once per window/2 commits of the leading
// shard, not once per commit.
//
// Soundness comes from mapping the construction onto the paper's externally
// synchronized clock framework (§3.2) with the epoch base playing the role
// of real time: every timestamp a shard issues lies within [base, base+window]
// at the moment of issue (GetNewTS lifts a stale shard above the base and
// pushes the base up when the shard runs more than a window ahead), and the
// base is monotone. Two issued values more than window apart are therefore
// strictly ordered by base history, so the base advertises Deviation =
// window/2 and the masked ⪰ operators of Algorithm 5 order its timestamps
// exactly like clocks with bounded deviation: same-shard comparisons are
// exact (CID = 1+shard), cross-shard comparisons mask ±window/2.
//
// The lazy part: GetTime reads the local shard plus the read-mostly epoch
// line (for the window clamp) and writes nothing shared, so a shard that
// has not committed recently keeps returning a stale time. Only a GetNewTS
// on the shard moves it, so an STM thread on a stale shard could find
// a fresh version possibly-later than every snapshot it can take and abort
// forever. No STM engine runs on this base: it stays only as the bench
// ladder's timebase.sharded rung, which times GetNewTS alone, until that
// rung is dropped (ROADMAP item 9(v)).
type ShardedCounter struct {
	shards []shard
	window int64 // even; issued values stay within [base, base+window]
	dev    int64 // window/2: the advertised Deviation

	_    [64]byte
	base atomic.Int64 // shared epoch base; read on commit, written ~2/window per commit
	_    [64]byte
}

// shard is one padded counter. Padding on both sides keeps neighbouring
// shards (and the epoch base) off each other's cache lines, which is the
// whole point of sharding the time base.
type shard struct {
	_ [64]byte
	c atomic.Int64
	_ [64]byte
}

// NewShardedCounter returns a sharded time base with the given number of
// shards (thread ids are taken modulo shards) and epoch window in ticks.
// shards is clamped to 1..MaxCID (1 degenerates to a plain, exact-per-shard
// counter; past MaxCID shards would run out of clock IDs); window < 2
// selects DefaultShardWindow, and odd windows are rounded up so the
// advertised deviation window/2 stays conservative.
func NewShardedCounter(shards int, window int64) *ShardedCounter {
	shards = min(max(shards, 1), MaxCID)
	if window < 2 {
		window = DefaultShardWindow
	}
	window += window & 1
	sc := &ShardedCounter{
		shards: make([]shard, shards),
		window: window,
		dev:    window / 2,
	}
	// Start above the window so every issued timestamp is ⪰ the Zero
	// sentinel even under full cross-shard masking.
	sc.base.Store(window + 1)
	for i := range sc.shards {
		sc.shards[i].c.Store(window + 1)
	}
	return sc
}

// Clock implements TimeBase. Handles for ids mapping to the same shard share
// that shard's counter word, exactly like threads sharing a node clock.
func (sc *ShardedCounter) Clock(id int) Clock {
	s := id % len(sc.shards)
	return &shardClock{sc: sc, sh: &sc.shards[s], cid: int32(1 + s)}
}

// Name implements TimeBase.
func (sc *ShardedCounter) Name() string {
	return fmt.Sprintf("Sharded(%d, w=%d)", len(sc.shards), sc.window)
}

// Deviation implements TimeBase: window/2.
func (sc *ShardedCounter) Deviation() int64 { return sc.dev }

// Shards returns the shard count.
func (sc *ShardedCounter) Shards() int { return len(sc.shards) }

// Window returns the epoch window in ticks.
func (sc *ShardedCounter) Window() int64 { return sc.window }

// Base exposes the shared epoch base for tests.
func (sc *ShardedCounter) Base() int64 { return sc.base.Load() }

type shardClock struct {
	sc  *ShardedCounter
	sh  *shard
	cid int32
}

// GetTime reads the local shard and clamps it to base+window. The clamp
// closes a soundness hole: a concurrent same-shard GetNewTS publishes its
// incremented counter value before it has raised the base, and several
// stacked increments can push the shard arbitrarily far past base+window —
// a reading from that gap would order, under masking, ahead of timestamps
// other shards issue later. Clamped readings always satisfy the window
// invariant at the moment of the read. The base load stays cheap: the line
// is written only once per window/2 commits of the leading shard, so it is
// read-mostly and cached everywhere — the contended word of SharedCounter
// was hot because of the per-commit writes, not the reads. Stale values
// (below base) are returned as-is; claiming an older reading is always
// conservative.
func (c *shardClock) GetTime() Timestamp {
	v := c.sh.c.Load()
	if lim := c.sc.base.Load() + c.sc.window; v > lim {
		v = lim
	}
	return Timestamp{TS: v, CID: c.cid}
}

// GetNewTS bumps the local shard and maintains the epoch invariant: the
// issued value is strictly above the base observed during the call, and the
// base ends up within a window of the issued value. The base write happens
// only when the shard has run half a window ahead, so the shared line is
// written once per window/2 commits of the leading shard instead of once per
// commit — that ratio is the scalability headline of this time base.
func (c *shardClock) GetNewTS() Timestamp {
	sc := c.sc
	v := c.sh.c.Add(1)
	b := sc.base.Load()
	if v <= b {
		// Stale shard: jump past the epoch base so the new timestamp is
		// never ordered before values already issued elsewhere. Without
		// this lift the masked ⪰ comparison would be unsound.
		v = c.sh.lift(b + 1)
	}
	if v-b > sc.window {
		// Advance the base in half-window chunks: the invariant only needs
		// base ≥ v−window, but leaving slack means the next window/2
		// commits of this shard touch no shared line at all.
		atomicMax(&sc.base, v-sc.dev)
	}
	return Timestamp{TS: v, CID: c.cid}
}

// lift raises the shard counter to at least target and returns a value not
// previously issued on this shard. Every return value is the result of an
// atomic read-modify-write that strictly increased the counter, so values
// issued on one shard are unique even when threads sharing the shard race.
func (s *shard) lift(target int64) int64 {
	for {
		cur := s.c.Load()
		if cur >= target {
			return s.c.Add(1)
		}
		if s.c.CompareAndSwap(cur, target) {
			return target
		}
	}
}

// atomicMax raises a to at least v.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
