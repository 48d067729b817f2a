package timebase

import "repro/internal/hwclock"

// PerfectClock is the time base of §3.1: perfectly synchronized real-time
// clocks. Every thread reads its node's register of a global hardware clock;
// because the registers are perfectly synchronized, reading a local register
// is indistinguishable from reading one global clock, but — unlike the shared
// counter — reads of distinct registers never contend with each other.
//
// getNewTS must return a value strictly greater than the invocation time
// (§2.4). If the device's read latency is at least one tick (as with the
// MMTimer, where a read takes 7–8 ticks), the value read has necessarily
// advanced past the invocation time and the busy-wait loop of Algorithm 4
// never spins; otherwise GetNewTS re-reads until the clock has ticked.
type PerfectClock struct {
	dev *hwclock.Device
}

// NewPerfectClock builds the time base on top of a simulated hardware clock
// device. The device must have zero configured offset and jitter — otherwise
// it is not perfectly synchronized and ExtSyncClock must be used instead.
func NewPerfectClock(dev *hwclock.Device) *PerfectClock {
	cfg := dev.Config()
	if cfg.MaxOffsetTicks != 0 || cfg.JitterTicks != 0 {
		panic("timebase: PerfectClock over a device with offsets/jitter; use NewExtSyncClock")
	}
	return &PerfectClock{dev: dev}
}

// NewMMTimer is a convenience constructor for the paper's default hardware
// configuration: a 20 MHz perfectly synchronized clock with 7-tick read
// latency and one register per node.
func NewMMTimer(nodes int) *PerfectClock {
	return NewPerfectClock(hwclock.New(hwclock.MMTimerConfig(nodes)))
}

// Clock implements TimeBase.
func (pc *PerfectClock) Clock(id int) Clock {
	return &perfectClock{dev: pc.dev, node: id % pc.dev.Nodes()}
}

// Name implements TimeBase.
func (pc *PerfectClock) Name() string { return "MMTimer" }

// Deviation implements TimeBase: the registers are perfectly synchronized.
func (pc *PerfectClock) Deviation() int64 { return 0 }

// Device exposes the underlying simulated hardware for experiments.
func (pc *PerfectClock) Device() *hwclock.Device { return pc.dev }

type perfectClock struct {
	dev  *hwclock.Device
	node int
}

// GetTime reads the local register (Algorithm 4 lines 1–4).
func (c *perfectClock) GetTime() Timestamp {
	return Exact(c.dev.NodeRead(c.node))
}

// GetNewTS re-reads the local register until the value is strictly greater
// than the value at invocation time (Algorithm 4 lines 5–11). With the
// MMTimer's read latency the first re-read already qualifies.
func (c *perfectClock) GetNewTS() Timestamp {
	ts := c.dev.NodeRead(c.node)
	t := ts
	for t <= ts {
		t = c.dev.NodeRead(c.node)
	}
	return Exact(t)
}
