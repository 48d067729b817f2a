package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
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

// baselineSTMs maps the experiment's table labels to the registry backends
// that stand for them; every point runs through the engine layer's int lane.
var baselineSTMs = []struct{ label, backend string }{
	{"LSA-RT/counter", "lsa/shared"},
	{"LSA-RT/clock", "lsa/mmtimer"},
	{"LSA-word", "wordstm"},
	{"TL2", "tl2"},
	{"RSTM-val", "rstmval"},
}

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
	for _, stm := range baselineSTMs {
		for _, scan := range cfg.ScanSizes {
			p, err := runBaselinePoint(stm.label, stm.backend, scan, cfg)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, p)
			res.Table.AddRowf(p.STM, p.Scan,
				fmt.Sprintf("%.0f", p.ScansPerS),
				fmt.Sprintf("%.0f", p.UpdPerS))
		}
	}
	return res, nil
}

// padCount is a per-worker counter padded to its own cache line.
type padCount struct {
	n atomic.Uint64
	_ [56]byte
}

// runBaselinePoint measures one (STM, scan size) point on a fresh engine:
// readers scan the first scan cells read-only, each updater increments its
// own cell.
func runBaselinePoint(label, backend string, scan int, cfg BaselinesConfig) (BaselinesPoint, error) {
	workers := cfg.Readers + cfg.Updaters
	eng, err := engine.New(backend, engine.Options{Nodes: workers, Words: cfg.Objects})
	if err != nil {
		return BaselinesPoint{}, err
	}
	cells := make([]engine.Cell, cfg.Objects)
	for i := range cells {
		cells[i] = eng.NewCell(0)
	}
	threads := make([]engine.Thread, workers)
	for i := range threads {
		threads[i] = eng.Thread(i)
	}
	counts := make([]padCount, workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := threads[id]
			reader := id < cfg.Readers
			scanFn := func(tx engine.Txn) error {
				for _, c := range cells[:scan] {
					if _, err := engine.Get[int](tx, c); err != nil {
						return err
					}
				}
				return nil
			}
			own := cells[id%len(cells)]
			updateFn := func(tx engine.Txn) error {
				return engine.Update(tx, own, func(n int) int { return n + 1 })
			}
			for i := 0; !stop.Load(); i++ {
				var err error
				if reader {
					err = th.RunReadOnly(scanFn)
				} else {
					err = th.Run(updateFn)
					if i%4096 == 4095 {
						// Updaters yield periodically so they cannot
						// monopolize a host with fewer cores than workers
						// and starve the readers entirely; on real parallel
						// hardware this is a no-op.
						runtime.Gosched()
					}
				}
				if err != nil {
					errs <- fmt.Errorf("%s worker %d: %w", label, id, err)
					return
				}
				counts[id].n.Add(1)
			}
		}(id)
	}
	warmup := cfg.Warmup
	if warmup == 0 {
		warmup = cfg.Duration / 5
	}
	time.Sleep(warmup)
	beforeR, beforeU := split(counts, cfg.Readers)
	t0 := time.Now()
	time.Sleep(cfg.Duration)
	afterR, afterU := split(counts, cfg.Readers)
	el := time.Since(t0).Seconds()
	stop.Store(true)
	wg.Wait()
	close(errs)
	if err, ok := <-errs; ok {
		return BaselinesPoint{}, err
	}
	return BaselinesPoint{
		STM:       label,
		Scan:      scan,
		ScansPerS: float64(afterR-beforeR) / el,
		UpdPerS:   float64(afterU-beforeU) / el,
	}, nil
}

func split(counts []padCount, readers int) (r, u uint64) {
	for i := range counts {
		if i < readers {
			r += counts[i].n.Load()
		} else {
			u += counts[i].n.Load()
		}
	}
	return r, u
}
