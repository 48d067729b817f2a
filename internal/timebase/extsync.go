package timebase

import (
	"fmt"

	"repro/internal/hwclock"
)

// NodeClock is a multi-register clock source: anything that can be read
// per-node. *hwclock.Device implements it; so does a software-corrected
// view of a device (see internal/clocksync).
type NodeClock interface {
	// NodeRead reads node's clock register, in ticks. Must be strictly
	// monotonic per node.
	NodeRead(node int) int64
	// Nodes is the number of registers.
	Nodes() int
}

// ExtSyncClock is the time base of §3.2: externally synchronized real-time
// clocks. Each thread reads its node's clock register, which deviates from
// real time by at most a known bound dev: |ECp(t) − t| ≤ dev. Timestamps
// carry (value, clock ID); the base's Order masks the uncertainty, which
// virtually shrinks version validity ranges by dev on each side and opens
// gaps of 2·dev between consecutive versions.
//
// Because dev > 0 masks the "valid exactly at commit time" case, getNewTS
// does not need to wait for a tick (Algorithm 5: "the loop is not necessary
// when dev > 0") — it is simply getTime.
type ExtSyncClock struct {
	src      NodeClock
	devBound int64
}

// NewExtSyncClock builds the time base on a simulated device. devBound is
// the advertised maximum deviation in ticks; it must cover the device's
// actual worst-case error (offset + jitter + read granularity), otherwise
// the ⪰ masking would be unsound and the STM could observe inconsistent
// snapshots.
func NewExtSyncClock(dev *hwclock.Device, devBound int64) (*ExtSyncClock, error) {
	if need := dev.Config().MaxErrorTicks(); devBound < need {
		return nil, fmt.Errorf("timebase: deviation bound %d ticks below device worst case %d", devBound, need)
	}
	return NewExtSyncClockFrom(dev, devBound)
}

// NewExtSyncClockFrom builds the time base on an arbitrary node-clock
// source. The caller asserts that devBound covers the source's true
// worst-case deviation from real time — e.g. the error bound produced by a
// software clock-synchronization pass.
func NewExtSyncClockFrom(src NodeClock, devBound int64) (*ExtSyncClock, error) {
	if devBound <= 0 {
		return nil, fmt.Errorf("timebase: deviation bound must be positive, got %d", devBound)
	}
	if n := src.Nodes(); n <= 0 || n > MaxCID {
		return nil, fmt.Errorf("timebase: node clock source has %d nodes, want 1..%d (one clock ID each)", n, MaxCID)
	}
	return &ExtSyncClock{src: src, devBound: devBound}, nil
}

// Clock implements TimeBase. The clock ID of issued timestamps is 1+node so
// it never collides with CIDExact; timestamps from the same node compare
// without deviation (Algorithm 5 line 12).
func (ec *ExtSyncClock) Clock(id int) Clock {
	node := id % ec.src.Nodes()
	return &extClock{src: ec.src, node: node, cid: int32(1 + node)}
}

// Name implements TimeBase.
func (ec *ExtSyncClock) Name() string { return fmt.Sprintf("ExtSync(dev=%d)", ec.devBound) }

// Deviation implements TimeBase: the advertised deviation bound in ticks.
func (ec *ExtSyncClock) Deviation() int64 { return ec.devBound }

type extClock struct {
	src  NodeClock
	node int
	cid  int32
}

// GetTime reads the local, imprecisely synchronized register and stamps the
// value with the clock ID (Algorithm 5 lines 1–5).
func (c *extClock) GetTime() Timestamp {
	return Timestamp{TS: c.src.NodeRead(c.node), CID: c.cid}
}

// GetNewTS is GetTime: with dev > 0 the uncertainty masking already
// guarantees versions are never valid exactly at their commit time
// (Algorithm 5 lines 6–9).
func (c *extClock) GetNewTS() Timestamp {
	return c.GetTime()
}
