// Package experiments implements the paper's evaluation (§4) as reusable,
// parameterized experiment functions. Each function regenerates one figure
// or claim:
//
//   - Fig1: MMTimer synchronization errors and offsets (Figure 1)
//   - Fig2: time-base overhead for disjoint update transactions (Figure 2)
//   - Fig2Word: Figure 2 on the word-based LSA engine (§1.1)
//   - TL2Opt: the TL2 commit-timestamp-sharing comparison (§4.2)
//   - SyncErrors: abort behaviour vs clock deviation (§4.3)
//   - Baselines: LSA-RT vs validating/TL2 baselines on read-dominated scans
//     (§1.2)
//
// Every series is an engine registry name ("lsa/shared", "lsa/mmtimer",
// ...): the registry alone turns a name into a time base plus engine, and
// every point is measured by harness.Run. Fig2Word labels its series
// "wordstm@<name>": the word engine on that engine's time base. The CLI
// (cmd/lsabench) and the root benchmark suite both drive these.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/hwclock"
	"repro/internal/stats"
	"repro/internal/wordstm"
	"repro/internal/workload"
)

// DefaultThreads is the paper's Figure 2 thread sweep.
var DefaultThreads = []int{1, 2, 4, 6, 8, 12, 16}

// DefaultSizes is the paper's Figure 2 transaction sizes (accesses per
// update transaction).
var DefaultSizes = []int{10, 50, 100}

// Fig1Config parameterizes the clock-synchronization measurement.
type Fig1Config struct {
	// Nodes is the number of CPUs/clock registers (paper: 16).
	Nodes int
	// Rounds is the number of comparison rounds (the paper ran 4 hours at
	// 0.1 s; we default to 100 back-to-back rounds).
	Rounds int
	// Interval between rounds.
	Interval time.Duration
	// OffsetTicks injects per-node clock offsets; 0 reproduces the paper's
	// (synchronized) MMTimer.
	OffsetTicks int64
}

// Fig1Result carries the measurement and its rendered table.
type Fig1Result struct {
	Measurement *clocksync.Result
	Table       *stats.Table
}

// Fig1 runs the Figure 1 experiment.
func Fig1(cfg Fig1Config) (*Fig1Result, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 16
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 100
	}
	dev := hwclock.New(hwclock.Config{
		TickHz:           20_000_000,
		ReadLatencyTicks: 7,
		Nodes:            cfg.Nodes,
		MaxOffsetTicks:   cfg.OffsetTicks,
		Seed:             1,
	})
	res, err := clocksync.Measure(clocksync.Config{
		Device:   dev,
		Rounds:   cfg.Rounds,
		Interval: cfg.Interval,
	})
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("round", "max|offset| (ticks)", "max error (ticks)", "max err+|off| (ticks)")
	for _, rr := range res.Rounds {
		tbl.AddRowf(rr.Round, rr.MaxAbsOffset, rr.MaxError, rr.MaxErrorPlusOffset)
	}
	return &Fig1Result{Measurement: res, Table: tbl}, nil
}

// Fig2Config parameterizes the time-base overhead experiment.
type Fig2Config struct {
	// Sizes are the transaction sizes (objects updated per transaction).
	Sizes []int
	// Threads is the worker sweep.
	Threads []int
	// Engines are the registry names to compare (default lsa/shared and
	// lsa/mmtimer: the shared counter against the hardware clock).
	Engines []string
	// Duration is the measured interval per point.
	Duration time.Duration
	// Warmup before each measurement.
	Warmup time.Duration
}

// Fig2Point is one measured point of a Figure 2 series.
type Fig2Point struct {
	Size    int
	Engine  string
	Threads int
	MTxPerS float64 // 10⁶ transactions per second, the paper's unit
	Result  harness.Result
}

// Fig2Result groups all points and the rendered table.
type Fig2Result struct {
	Points []Fig2Point
	Table  *stats.Table
}

// Fig2 runs the Figure 2 experiment: disjoint update transactions of each
// size, on each engine, across the thread sweep.
func Fig2(cfg Fig2Config) (*Fig2Result, error) {
	return fig2(cfg, func(name string, threads, _ int) (engine.Engine, error) {
		return engine.New(name, engine.Options{Nodes: threads})
	})
}

// TL2Opt runs the §4.2 counter-optimization comparison: the Figure 2
// workload on the plain shared counter versus the TL2-style sharing
// counter.
func TL2Opt(cfg Fig2Config) (*Fig2Result, error) {
	cfg.Engines = []string{"lsa/shared", "lsa/tl2ts"}
	return Fig2(cfg)
}

// Fig2Word runs the Figure 2 workload on the word-based LSA engine: §1.1
// states the time-based approach applies to word-based STMs unchanged, and
// this experiment demonstrates it — the same disjoint-update sweep, the
// same time bases, a different memory representation. Each series runs the
// word engine on the time base of the named LSA engine, so only exact bases
// are eligible (lock words hold bare tick counts).
func Fig2Word(cfg Fig2Config) (*Fig2Result, error) {
	return fig2(cfg, func(name string, threads, size int) (engine.Engine, error) {
		lsa, err := engine.New(name, engine.Options{Nodes: threads})
		if err != nil {
			return nil, err
		}
		rt, ok := lsa.(interface{ Unwrap() *core.Runtime })
		if !ok {
			return nil, fmt.Errorf("experiments: %s is not an LSA engine", name)
		}
		// One private partition of 2×size words per worker (workload.Disjoint).
		stm, err := wordstm.New(rt.Unwrap().TimeBase(), threads*2*size)
		if err != nil {
			return nil, err
		}
		return engine.WrapWord("wordstm@"+name, stm), nil
	})
}

// fig2 measures workload.Disjoint at each size on a fresh engine per
// (engine name, thread count) point, built by build.
func fig2(cfg Fig2Config, build func(name string, threads, size int) (engine.Engine, error)) (*Fig2Result, error) {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = DefaultSizes
	}
	if len(cfg.Threads) == 0 {
		cfg.Threads = DefaultThreads
	}
	if len(cfg.Engines) == 0 {
		cfg.Engines = []string{"lsa/shared", "lsa/mmtimer"}
	}
	if cfg.Duration == 0 {
		cfg.Duration = 300 * time.Millisecond
	}
	res := &Fig2Result{
		Table: stats.NewTable("accesses", "engine", "threads", "tx/s", "Mtx/s", "aborts/attempt"),
	}
	for _, size := range cfg.Sizes {
		for _, name := range cfg.Engines {
			for _, threads := range cfg.Threads {
				eng, err := build(name, threads, size)
				if err != nil {
					return nil, err
				}
				r, err := harness.Run(eng, &workload.Disjoint{Accesses: size}, harness.Options{
					Workers:  threads,
					Duration: cfg.Duration,
					Warmup:   cfg.Warmup,
				})
				if err != nil {
					return nil, err
				}
				p := Fig2Point{
					Size:    size,
					Engine:  r.Engine,
					Threads: threads,
					MTxPerS: r.Throughput / 1e6,
					Result:  r,
				}
				res.Points = append(res.Points, p)
				res.Table.AddRowf(size, r.Engine, threads,
					fmt.Sprintf("%.0f", r.Throughput),
					fmt.Sprintf("%.4f", p.MTxPerS),
					fmt.Sprintf("%.4f", r.Stats.AbortRate()))
			}
		}
	}
	return res, nil
}
