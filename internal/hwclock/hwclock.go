// Package hwclock simulates the hardware clock of the paper's testbed: the
// MMTimer of the SGI Altix 3700 (§4.1). The real device is a 20 MHz global
// clock with one register per node; reading it always takes 7–8 of its own
// ticks, which makes it strictly monotonic per reader and masks most of the
// (hardware-synchronized) per-node offset.
//
// The simulation derives ticks from Go's monotonic clock and lets tests and
// experiments inject the properties the paper studies:
//
//   - tick period (20 MHz → 50 ns by default),
//   - a read latency, modeled by spinning for the configured number of ticks
//     so that the *cost* of a clock read — the thing Figure 2 measures — is
//     physically present, not just accounted for;
//   - per-node constant offsets and per-read jitter, to model imperfectly
//     synchronized node registers for the clock-comparison experiment
//     (Figure 1) and the externally synchronized time base (§3.2).
//
// With zero offsets and zero jitter the device behaves as a perfectly
// synchronized clock: every node read is a linearizable read of one global
// clock (§3.1).
package hwclock

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// Config describes a simulated clock device.
type Config struct {
	// TickHz is the clock frequency. Must be positive.
	// The MMTimer runs at 20 MHz.
	TickHz int64

	// ReadLatencyTicks is how many device ticks a single read takes. The
	// MMTimer takes 7–8. Zero means reads are free (an idealized clock).
	ReadLatencyTicks int64

	// Nodes is the number of per-node clock registers. Must be positive.
	Nodes int

	// MaxOffsetTicks bounds the constant synchronization offset of each
	// node's register from true device time. Zero models perfect hardware
	// synchronization.
	MaxOffsetTicks int64

	// JitterTicks bounds the additional per-read, uniformly distributed
	// error (e.g. varying latency of the clock-distribution signal). Zero
	// disables jitter.
	JitterTicks int64

	// Seed seeds the offset/jitter generator so experiments are repeatable.
	Seed int64
}

// MMTimerConfig returns the configuration matching the paper's description
// of the Altix MMTimer with perfectly synchronized node registers: 20 MHz,
// 7-tick read latency, no offsets or jitter.
func MMTimerConfig(nodes int) Config {
	return Config{TickHz: 20_000_000, ReadLatencyTicks: 7, Nodes: nodes}
}

// IdealConfig returns an idealized free-to-read, nanosecond-granularity,
// perfectly synchronized clock. Useful for separating algorithmic costs from
// clock-access costs in ablations.
func IdealConfig(nodes int) Config {
	return Config{TickHz: 1_000_000_000, Nodes: nodes}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.TickHz <= 0 {
		return fmt.Errorf("hwclock: TickHz must be positive, got %d", c.TickHz)
	}
	if c.Nodes <= 0 {
		return fmt.Errorf("hwclock: Nodes must be positive, got %d", c.Nodes)
	}
	if c.ReadLatencyTicks < 0 || c.MaxOffsetTicks < 0 || c.JitterTicks < 0 {
		return fmt.Errorf("hwclock: negative latency/offset/jitter")
	}
	return nil
}

// MaxErrorTicks is the worst-case deviation of a node read from true device
// time: constant offset plus jitter plus one tick of read granularity. An
// externally synchronized time base built on this device must use at least
// this deviation bound.
func (c Config) MaxErrorTicks() int64 {
	return c.MaxOffsetTicks + c.JitterTicks + 1
}

// Device is a simulated global hardware clock with per-node registers.
// All methods are safe for concurrent use.
type Device struct {
	cfg        Config
	start      time.Time // monotonic epoch
	tickPeriod time.Duration
	nodes      []nodeRegister
}

type nodeRegister struct {
	_         [64]byte // keep each node's state on its own cache line
	offset    int64    // constant offset from true device time, in ticks
	jitterSrc atomic.Int64
	lastRead  atomic.Int64 // strict-monotonicity floor for this register
	_         [40]byte
}

// New creates a device. It panics on an invalid configuration; configs come
// from code, not user input.
func New(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Device{
		cfg:        cfg,
		start:      time.Now(),
		tickPeriod: time.Duration(int64(time.Second) / cfg.TickHz),
		nodes:      make([]nodeRegister, cfg.Nodes),
	}
	if d.tickPeriod <= 0 {
		d.tickPeriod = time.Nanosecond
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range d.nodes {
		if cfg.MaxOffsetTicks > 0 {
			// Offsets uniform in [−MaxOffsetTicks, +MaxOffsetTicks].
			d.nodes[i].offset = rng.Int63n(2*cfg.MaxOffsetTicks+1) - cfg.MaxOffsetTicks
		}
		d.nodes[i].jitterSrc.Store(rng.Int63())
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Nodes returns the number of node registers.
func (d *Device) Nodes() int { return len(d.nodes) }

// TrueOffset returns node's constant offset in ticks. Experiments use it to
// compare an estimated offset with ground truth; the STM never calls it.
func (d *Device) TrueOffset(node int) int64 { return d.nodes[node].offset }

// Now returns the true device time in ticks, with no latency, offset or
// jitter. This is the omniscient observer's clock, used by experiment
// harnesses; real readers go through NodeRead.
func (d *Device) Now() int64 {
	return int64(time.Since(d.start) / d.tickPeriod)
}

// NodeRead reads node's clock register. It costs ReadLatencyTicks of device
// time (a spin, so the cost is physically real in benchmarks), includes the
// node's constant offset and per-read jitter, and is strictly monotonic per
// register, as the MMTimer is observed to be (§4.1: reading takes 7–8 ticks,
// so the effective granularity is coarser than the tick rate and every read
// returns a fresh value).
func (d *Device) NodeRead(node int) int64 {
	nr := &d.nodes[node]
	if d.cfg.ReadLatencyTicks > 0 {
		deadline := time.Duration(d.cfg.ReadLatencyTicks) * d.tickPeriod
		begin := time.Now()
		for time.Since(begin) < deadline {
			// Busy wait: the cost of the read is the point.
		}
	}
	v := d.Now() + nr.offset
	if d.cfg.JitterTicks > 0 {
		v += nr.nextJitter(d.cfg.JitterTicks)
	}
	// Enforce strict per-register monotonicity, as the real device provides.
	for {
		last := nr.lastRead.Load()
		if v <= last {
			v = last + 1
		}
		if nr.lastRead.CompareAndSwap(last, v) {
			return v
		}
	}
}

// nextJitter produces a uniform value in [−bound, +bound] from a per-node
// xorshift generator (avoiding a lock inside math/rand on the read path).
func (nr *nodeRegister) nextJitter(bound int64) int64 {
	for {
		old := nr.jitterSrc.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if nr.jitterSrc.CompareAndSwap(old, x) {
			if x < 0 {
				x = -x
			}
			return x%(2*bound+1) - bound
		}
	}
}
