package experiments

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/stats"
)

// SyncErrorsConfig parameterizes the §4.3 experiment: how the advertised
// clock deviation affects abort rates and throughput. The underlying device
// is kept (near-)perfect; only the advertised bound grows, which is exactly
// the effect of a poorly synchronized clock: validity ranges shrink by dev
// at each end and 2·dev gaps open between versions.
type SyncErrorsConfig struct {
	// Deviations are the advertised bounds in ticks (on a 1 GHz device,
	// ticks are nanoseconds): lsa/extsync at each, except that 0 runs
	// lsa/ideal, the perfect clock.
	Deviations []int64
	// Threads is the worker count (default 8).
	Threads int
	// MaxVersions compares history depths (default [1, 8]: single-version
	// STMs only lose the start of ranges; multi-version STMs lose both ends,
	// §4.3).
	MaxVersions []int
	// Duration per measured point.
	Duration time.Duration
	// Warmup before each measurement.
	Warmup time.Duration
}

// SyncErrorsPoint is one measured point.
type SyncErrorsPoint struct {
	Deviation   int64
	MaxVersions int
	Throughput  float64
	AbortRate   float64
	Snapshot    uint64 // snapshot aborts (the §4.3 failure mode)
	Result      harness.Result
}

// SyncErrorsResult groups all points with a rendered table.
type SyncErrorsResult struct {
	Points []SyncErrorsPoint
	Table  *stats.Table
}

// ReadWriteMix is a contended workload whose read-only transactions scan a
// window of shared objects while update transactions rewrite them — the
// configuration in which shrunken validity ranges actually bite. Even
// worker ids update one of 64 shared cells, odd ones scan 16 of them.
type ReadWriteMix struct {
	cells []engine.Cell
}

// Name implements harness.Workload.
func (m *ReadWriteMix) Name() string { return "rwmix/64" }

// Init implements harness.Workload.
func (m *ReadWriteMix) Init(eng engine.Engine, workers int) error {
	m.cells = make([]engine.Cell, 64)
	for i := range m.cells {
		m.cells[i] = eng.NewCell(0)
	}
	return nil
}

// Step implements harness.Workload.
func (m *ReadWriteMix) Step(eng engine.Engine, th engine.Thread, id int) func() error {
	n := 0
	return func() error {
		n++
		if id%2 == 0 {
			// Updater: rewrite one object.
			c := m.cells[(id*7+n)%len(m.cells)]
			return th.Run(func(tx engine.Txn) error {
				return engine.Update(tx, c, func(v int) int { return v + 1 })
			})
		}
		// Reader: scan a window read-only.
		start := (id*13 + n) % len(m.cells)
		return th.RunReadOnly(func(tx engine.Txn) error {
			for i := 0; i < 16; i++ {
				if _, err := tx.Read(m.cells[(start+i)%len(m.cells)]); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// SyncErrors runs the §4.3 experiment.
func SyncErrors(cfg SyncErrorsConfig) (*SyncErrorsResult, error) {
	if len(cfg.Deviations) == 0 {
		cfg.Deviations = []int64{0, 100, 1_000, 10_000, 100_000, 1_000_000}
	}
	if cfg.Threads == 0 {
		cfg.Threads = 8
	}
	if len(cfg.MaxVersions) == 0 {
		cfg.MaxVersions = []int{1, 8}
	}
	if cfg.Duration == 0 {
		cfg.Duration = 200 * time.Millisecond
	}
	res := &SyncErrorsResult{
		Table: stats.NewTable("dev (ticks)", "versions", "tx/s", "aborts/attempt", "snapshot aborts"),
	}
	for _, mv := range cfg.MaxVersions {
		for _, dev := range cfg.Deviations {
			name := "lsa/extsync"
			if dev == 0 {
				name = "lsa/ideal"
			}
			eng, err := engine.New(name, engine.Options{Nodes: cfg.Threads, Deviation: dev, MaxVersions: mv})
			if err != nil {
				return nil, err
			}
			r, err := harness.Run(eng, &ReadWriteMix{}, harness.Options{
				Workers:  cfg.Threads,
				Duration: cfg.Duration,
				Warmup:   cfg.Warmup,
			})
			if err != nil {
				return nil, err
			}
			p := SyncErrorsPoint{
				Deviation:   dev,
				MaxVersions: mv,
				Throughput:  r.Throughput,
				AbortRate:   r.Stats.AbortRate(),
				Snapshot:    r.Stats.AbortSnapshot,
				Result:      r,
			}
			res.Points = append(res.Points, p)
			res.Table.AddRowf(dev, mv,
				fmt.Sprintf("%.0f", p.Throughput),
				fmt.Sprintf("%.4f", p.AbortRate),
				p.Snapshot)
		}
	}
	return res, nil
}
