package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/stats"
)

// BaselinesConfig parameterizes the §1.2 comparison: read-only scans of
// growing size under concurrent disjoint updates, on LSA-RT (with a counter
// and with a clock), TL2, and the validating STM with the commit-counter
// heuristic. Time-based STMs keep read costs O(1) per access; validation
// costs grow with the read set; and single-version STMs may abort readers
// that multi-version LSA-RT serves from history.
type BaselinesConfig struct {
	// ScanSizes are the numbers of objects each read-only scan touches.
	ScanSizes []int
	// Readers and Updaters are the worker split (defaults 4 and 4).
	Readers  int
	Updaters int
	// Objects is the shared table size (default: max scan size).
	Objects int
	// Duration per measured point.
	Duration time.Duration
	// Warmup before each measurement.
	Warmup time.Duration
}

// BaselinesPoint is one measured point.
type BaselinesPoint struct {
	STM       string
	Scan      int
	ScansPerS float64
	UpdPerS   float64
}

// BaselinesResult groups all points with a rendered table.
type BaselinesResult struct {
	Points []BaselinesPoint
	Table  *stats.Table
}

// baselineEngines are the compared backends: LSA-RT on a counter and on a
// clock, the word-based LSA engine, TL2, and the validating STM.
var baselineEngines = []string{"lsa/shared", "lsa/mmtimer", "wordstm", "tl2", "rstmval"}

// Baselines runs the comparison.
func Baselines(cfg BaselinesConfig) (*BaselinesResult, error) {
	if len(cfg.ScanSizes) == 0 {
		cfg.ScanSizes = []int{16, 64, 256}
	}
	if cfg.Readers == 0 {
		cfg.Readers = 4
	}
	if cfg.Updaters == 0 {
		cfg.Updaters = 4
	}
	if cfg.Objects == 0 {
		for _, s := range cfg.ScanSizes {
			if s > cfg.Objects {
				cfg.Objects = s
			}
		}
	}
	for _, s := range cfg.ScanSizes {
		if s > cfg.Objects {
			return nil, fmt.Errorf("experiments: scan size %d exceeds table size %d", s, cfg.Objects)
		}
	}
	if cfg.Duration == 0 {
		cfg.Duration = 150 * time.Millisecond
	}
	res := &BaselinesResult{
		Table: stats.NewTable("stm", "scan size", "scans/s", "updates/s"),
	}
	workers := cfg.Readers + cfg.Updaters
	for _, name := range baselineEngines {
		for _, scan := range cfg.ScanSizes {
			eng, err := engine.New(name, engine.Options{Nodes: workers, Words: cfg.Objects})
			if err != nil {
				return nil, err
			}
			r, err := harness.Run(eng, &scanUnderUpdates{objects: cfg.Objects, scan: scan, readers: cfg.Readers},
				harness.Options{Workers: workers, Duration: cfg.Duration, Warmup: cfg.Warmup})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			var scans, updates uint64
			for id, n := range r.WorkerTxs {
				if id < cfg.Readers {
					scans += n
				} else {
					updates += n
				}
			}
			p := BaselinesPoint{
				STM:       name,
				Scan:      scan,
				ScansPerS: float64(scans) / r.Elapsed.Seconds(),
				UpdPerS:   float64(updates) / r.Elapsed.Seconds(),
			}
			res.Points = append(res.Points, p)
			res.Table.AddRowf(p.STM, p.Scan,
				fmt.Sprintf("%.0f", p.ScansPerS),
				fmt.Sprintf("%.0f", p.UpdPerS))
		}
	}
	return res, nil
}

// scanUnderUpdates is the §1.2 mix: workers below readers scan the first
// scan cells read-only, every other worker increments its own cell.
type scanUnderUpdates struct {
	objects, scan, readers int
	cells                  []engine.Cell
}

func (w *scanUnderUpdates) Name() string { return fmt.Sprintf("scan/%d", w.scan) }

func (w *scanUnderUpdates) Init(eng engine.Engine, workers int) error {
	w.cells = make([]engine.Cell, w.objects)
	for i := range w.cells {
		w.cells[i] = eng.NewCell(0)
	}
	return nil
}

func (w *scanUnderUpdates) Step(eng engine.Engine, th engine.Thread, id int) func() error {
	if id < w.readers {
		scan := func(tx engine.Txn) error {
			for _, c := range w.cells[:w.scan] {
				if _, err := engine.Get[int](tx, c); err != nil {
					return err
				}
			}
			return nil
		}
		return func() error { return th.RunReadOnly(scan) }
	}
	own := w.cells[id%len(w.cells)]
	update := func(tx engine.Txn) error {
		return engine.Update(tx, own, func(n int) int { return n + 1 })
	}
	i := 0
	return func() error {
		// Updaters yield every 4096 updates. Without it, on a host with
		// fewer cores than workers, an updater holds its core for a whole
		// 10 ms preemption slice and aborts every single-version scan run
		// against it: tl2 and rstmval scans fall from millions per second
		// to near zero on 2 CPUs.
		if i++; i%4096 == 0 {
			runtime.Gosched()
		}
		return th.Run(update)
	}
}
