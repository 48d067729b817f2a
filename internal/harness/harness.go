// Package harness drives throughput experiments over any registered STM
// backend: it spins up worker goroutines, runs a workload for a fixed
// duration with warmup, and reports committed transactions per second — the
// measurement protocol behind the paper's Figure 2, generalized so the same
// scenario runs on every engine from one entry point.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/latency"
)

// Workload is a benchmarkable transaction mix, written against the
// backend-neutral engine interface.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Init allocates the shared cells for a run with the given worker
	// count. It is called once per Run, before any worker starts.
	Init(eng engine.Engine, workers int) error
	// Step returns the function executed repeatedly by worker id. Each call
	// must run exactly one (retried-until-committed) transaction. The
	// returned closure may keep per-worker state; it is called from a
	// single goroutine.
	Step(eng engine.Engine, th engine.Thread, id int) func() error
}

// Options configure a measurement run.
type Options struct {
	// Workers is the number of concurrent worker goroutines. Must be ≥ 1.
	Workers int
	// Duration is the measured interval. Must be > 0.
	Duration time.Duration
	// Warmup runs the workload before measurement starts (default: 20% of
	// Duration).
	Warmup time.Duration
}

// Result is the outcome of one run.
type Result struct {
	// Workload and Engine identify the configuration.
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	// Workers is the worker count.
	Workers int `json:"workers"`
	// Elapsed is the measured wall-clock interval.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Txs is the number of transactions committed inside the interval.
	Txs uint64 `json:"txs"`
	// WorkerTxs splits Txs by worker id, for workloads whose workers play
	// different roles (readers and updaters). Not part of the snapshot.
	WorkerTxs []uint64 `json:"-"`
	// Throughput is Txs per second.
	Throughput float64 `json:"tx_per_s"`
	// AllocsPerCommit and BytesPerCommit are the process-wide heap
	// allocation count and byte deltas (runtime.ReadMemStats Mallocs /
	// TotalAlloc) across the measured interval, divided by Txs — the GC
	// pressure axis of the snapshot. Methodology caveats: the deltas count
	// everything the process allocates during the interval (workload
	// closures, value boxing, the engine, and a few harness timer
	// allocations), so treat them as per-committed-transaction cost of the
	// whole engine+workload stack, not of the STM algorithm alone; aborted
	// attempts' allocations are charged to the commits that survive, which
	// is deliberate — wasted work is real GC pressure.
	AllocsPerCommit float64 `json:"allocs_per_commit"`
	BytesPerCommit  float64 `json:"bytes_per_commit"`
	// Stats are the engine counters accumulated over the whole run
	// (including warmup).
	Stats engine.Stats `json:"stats"`
	// Latency is the per-transaction commit-latency distribution inside the
	// measured interval: the time from one commit to the next on the same
	// worker, which includes every aborted attempt in between (retries are
	// part of the latency a caller observes). Its Count equals Txs exactly —
	// both are the same histogram delta.
	Latency *latency.Summary `json:"latency_ns,omitempty"`
	// Retry is the per-attempt latency distribution: each inter-commit gap
	// divided evenly over the attempts it took (from the thread's
	// engine.AttemptCounter). Comparing Retry's count to Latency's shows the
	// retry amplification; comparing their percentiles shows whether retries
	// are cheap re-runs or expensive stalls.
	Retry *latency.Summary `json:"retry_ns,omitempty"`
	// Scaling, when the record came from a worker-count sweep, holds the
	// whole throughput/latency curve; the top-level fields describe the
	// highest worker count measured.
	Scaling []ScalingPoint `json:"scaling,omitempty"`
	// Wal, when the run was measured on a durable engine (engine.Durable),
	// records which fsync policy was paying the commit-latency tax. Absent
	// for in-memory engines; snapshots may mix durable and plain records.
	Wal *WalInfo `json:"wal,omitempty"`
}

// WalInfo is the durability telemetry of a measured run.
type WalInfo struct {
	// FsyncPolicy is the engine's sync policy: "always", "group" or "never".
	FsyncPolicy string `json:"fsync_policy"`
	// Fsyncs counts the log fsyncs since the engine opened (init and warm-up
	// included); CommitsPerFsync is the commits they covered per fsync — the
	// group-commit batch size (absent under "never").
	Fsyncs          uint64  `json:"fsyncs,omitempty"`
	CommitsPerFsync float64 `json:"commits_per_fsync,omitempty"`
}

// ScalingPoint is one worker count of a scaling curve.
type ScalingPoint struct {
	Workers    int     `json:"workers"`
	Throughput float64 `json:"tx_per_s"`
	AbortRate  float64 `json:"aborts_per_attempt"`
	P50        int64   `json:"p50_ns,omitempty"`
	P99        int64   `json:"p99_ns,omitempty"`
	P999       int64   `json:"p999_ns,omitempty"`
}

// String renders the result on one line.
func (r Result) String() string {
	s := fmt.Sprintf("%s/%s workers=%d tx/s=%.0f (aborts/attempt=%.3f, allocs/commit=%.1f)",
		r.Workload, r.Engine, r.Workers, r.Throughput, r.Stats.AbortRate(), r.AllocsPerCommit)
	if r.Latency != nil {
		s += fmt.Sprintf(" p50=%v p99=%v p999=%v",
			time.Duration(r.Latency.P50), time.Duration(r.Latency.P99), time.Duration(r.Latency.P999))
	}
	return s
}

// Validate reports whether the result is a well-formed record of a run that
// actually made progress. It is the record-level half of the bench-smoke
// gate (cmd/benchcheck): an engine that silently wedges under the full
// matrix — workers spinning without committing, or a run so broken the
// fields never got filled in — produces a record this rejects, which `go
// test` never notices because the conformance suite drives every engine
// with bounded iteration counts instead of a measured interval.
func (r Result) Validate() error {
	switch {
	case r.Engine == "":
		return fmt.Errorf("harness: result without engine name: %+v", r)
	case r.Workload == "":
		return fmt.Errorf("harness: result without workload name: %+v", r)
	case r.Workers < 1:
		return fmt.Errorf("harness: %s/%s: workers = %d", r.Workload, r.Engine, r.Workers)
	case r.Elapsed <= 0:
		return fmt.Errorf("harness: %s/%s: non-positive measured interval %v", r.Workload, r.Engine, r.Elapsed)
	case r.Stats.Commits == 0:
		return fmt.Errorf("harness: %s/%s: zero commits over the whole run (engine wedged?)", r.Workload, r.Engine)
	case r.Txs == 0:
		return fmt.Errorf("harness: %s/%s: zero transactions inside the measured interval", r.Workload, r.Engine)
	case r.Throughput <= 0:
		return fmt.Errorf("harness: %s/%s: non-positive throughput %f with %d txs", r.Workload, r.Engine, r.Throughput, r.Txs)
	case r.AllocsPerCommit < 0 || r.BytesPerCommit < 0:
		return fmt.Errorf("harness: %s/%s: negative alloc telemetry (allocs/commit=%f, bytes/commit=%f)",
			r.Workload, r.Engine, r.AllocsPerCommit, r.BytesPerCommit)
	case (r.AllocsPerCommit == 0) != (r.BytesPerCommit == 0):
		// Telemetry is taken from one ReadMemStats delta: allocations and
		// bytes are zero together or positive together. A mismatch means a
		// stripped or hand-edited field.
		return fmt.Errorf("harness: %s/%s: inconsistent alloc telemetry (allocs/commit=%f, bytes/commit=%f)",
			r.Workload, r.Engine, r.AllocsPerCommit, r.BytesPerCommit)
	}
	// Both-zero alloc telemetry is legitimate since the typed value lane:
	// engines like glock and norec commit int-valued workloads with zero
	// process-wide allocations over a whole measured interval. Detecting a
	// snapshot that predates the telemetry entirely is therefore a
	// snapshot-level check (cmd/benchcheck: at least one record must carry
	// nonzero telemetry). Stats.BoxedCommits (the boxed% column) is
	// likewise accepted but never required. Latency is checked here for
	// internal consistency when present; cmd/benchcheck requires it on every
	// record of a snapshot.
	if r.Latency != nil {
		if err := r.Latency.Validate(); err != nil {
			return fmt.Errorf("harness: %s/%s: latency: %w", r.Workload, r.Engine, err)
		}
		if r.Latency.Count != r.Txs {
			// Txs and the commit histogram are deltas of the same per-worker
			// probes over the same boundary snapshots, so they must tie out
			// exactly; a mismatch means a stripped or hand-edited record.
			return fmt.Errorf("harness: %s/%s: latency count %d != txs %d",
				r.Workload, r.Engine, r.Latency.Count, r.Txs)
		}
	}
	if r.Retry != nil {
		if err := r.Retry.Validate(); err != nil {
			return fmt.Errorf("harness: %s/%s: retry latency: %w", r.Workload, r.Engine, err)
		}
		// No cross-check against Latency: the commit and retry probes are
		// snapshotted back-to-back while workers keep running, so their
		// counts may skew by in-flight steps.
	}
	if r.Wal != nil {
		switch r.Wal.FsyncPolicy {
		// Mirrors the engine.Options -fsync domain; a record claiming WAL
		// telemetry with a policy outside it is stripped or hand-edited.
		case "always", "group", "never":
		default:
			return fmt.Errorf("harness: %s/%s: wal telemetry with unknown fsync policy %q",
				r.Workload, r.Engine, r.Wal.FsyncPolicy)
		}
	}
	prev := 0
	for _, p := range r.Scaling {
		if p.Workers <= prev {
			return fmt.Errorf("harness: %s/%s: scaling curve worker counts not strictly increasing (%d after %d)",
				r.Workload, r.Engine, p.Workers, prev)
		}
		prev = p.Workers
		if p.Throughput <= 0 {
			return fmt.Errorf("harness: %s/%s: scaling point workers=%d has non-positive throughput %f",
				r.Workload, r.Engine, p.Workers, p.Throughput)
		}
	}
	return nil
}

// workerProbe is the per-worker measurement state: the commit- and
// per-attempt-latency histograms. Each histogram is a cache-line multiple of
// atomic counters private to its worker (readers only Load), so recording
// does not perturb the contention under study; the committed-transaction
// count is the commit histogram's total, so throughput and latency can never
// disagree. One time.Now per step (tens of nanoseconds, vDSO) is the whole
// probing cost.
type workerProbe struct {
	commit latency.Histogram
	retry  latency.Histogram
}

// Run executes the workload and measures steady-state throughput.
func Run(eng engine.Engine, w Workload, opt Options) (Result, error) {
	if opt.Workers < 1 {
		return Result{}, fmt.Errorf("harness: Workers must be ≥ 1, got %d", opt.Workers)
	}
	if opt.Duration <= 0 {
		return Result{}, fmt.Errorf("harness: Duration must be positive, got %v", opt.Duration)
	}
	warmup := opt.Warmup
	if warmup == 0 {
		warmup = opt.Duration / 5
	}
	if err := w.Init(eng, opt.Workers); err != nil {
		return Result{}, fmt.Errorf("harness: init %s on %s: %w", w.Name(), eng.Name(), err)
	}

	probes := make([]workerProbe, opt.Workers)
	var stop atomic.Bool
	var start sync.WaitGroup
	var done sync.WaitGroup
	errs := make(chan error, opt.Workers)
	start.Add(1)
	for id := 0; id < opt.Workers; id++ {
		done.Add(1)
		go func(id int) {
			defer done.Done()
			th := eng.Thread(id)
			step := w.Step(eng, th, id)
			// Per-attempt latency needs the thread's attempt counter; every
			// backend in this module implements it, but a fallback (one
			// attempt per step) keeps external engines measurable.
			ac, _ := th.(engine.AttemptCounter)
			p := &probes[id]
			var lastAttempts uint64
			if ac != nil {
				lastAttempts = ac.Attempts()
			}
			start.Wait()
			prev := time.Now()
			for !stop.Load() {
				if err := step(); err != nil {
					errs <- fmt.Errorf("worker %d: %w", id, err)
					return
				}
				now := time.Now()
				d := now.Sub(prev)
				prev = now
				p.commit.Record(d)
				if ac != nil {
					a := ac.Attempts()
					k := a - lastAttempts
					lastAttempts = a
					if k == 0 {
						k = 1 // defensive: a step must have run ≥ 1 attempt
					}
					p.retry.RecordN(d/time.Duration(k), k)
				} else {
					p.retry.Record(d)
				}
			}
		}(id)
	}

	start.Done()
	time.Sleep(warmup)
	// Allocation telemetry: ReadMemStats deltas bracketing the measured
	// interval. Each call stops the world briefly, which is why they sit at
	// the interval edges (outside the throughput measurement t0..elapsed)
	// and never inside it. The microseconds between the commit-counter
	// snapshots and the memstats reads — while workers keep running — are
	// noise proportional to gap/interval, negligible at the default 300 ms
	// and acceptable at CI's 60 ms smoke interval.
	workerBefore, workerTxs := make([]uint64, opt.Workers), make([]uint64, opt.Workers)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	commitBefore, retryBefore := snapshot(probes, workerBefore)
	t0 := time.Now()
	time.Sleep(opt.Duration)
	commitAfter, retryAfter := snapshot(probes, workerTxs)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	stop.Store(true)
	done.Wait()
	close(errs)
	if err, ok := <-errs; ok {
		return Result{}, err
	}

	for i, n := range workerBefore {
		workerTxs[i] -= n
	}
	commitDelta := commitAfter.Sub(commitBefore)
	txs := commitDelta.Count()
	r := Result{
		Workload:   w.Name(),
		Engine:     eng.Name(),
		Workers:    opt.Workers,
		Elapsed:    elapsed,
		Txs:        txs,
		WorkerTxs:  workerTxs,
		Throughput: float64(txs) / elapsed.Seconds(),
		Stats:      eng.Stats(),
		Latency:    commitDelta.Summary(),
		Retry:      retryAfter.Sub(retryBefore).Summary(),
	}
	if txs > 0 {
		r.AllocsPerCommit = float64(m1.Mallocs-m0.Mallocs) / float64(txs)
		r.BytesPerCommit = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(txs)
	}
	if d, ok := eng.(engine.Durable); ok {
		di := d.DurabilityInfo()
		r.Wal = &WalInfo{FsyncPolicy: di.FsyncPolicy, Fsyncs: di.Fsyncs, CommitsPerFsync: di.CommitsPerFsync}
	}
	return r, nil
}

// snapshot merges the per-worker commit and retry histograms into two value
// snapshots. Workers keep running while it reads, so the two totals may skew
// by a few in-flight steps — delta pairs of the same histogram are exact.
// perWorker receives each worker's commit count.
func snapshot(ps []workerProbe, perWorker []uint64) (commit, retry latency.Buckets) {
	for i := range ps {
		c := ps[i].commit.Load()
		perWorker[i] = c.Count()
		commit.Accumulate(c)
		retry.Accumulate(ps[i].retry.Load())
	}
	return commit, retry
}

// DefaultWorkerCounts returns the standard scaling-curve worker counts:
// powers of two from 1 up to max, plus max itself when it is not a power of
// two — {1, 2, 4, ..., max}. max is usually runtime.GOMAXPROCS(0).
func DefaultWorkerCounts(max int) []int {
	if max < 1 {
		max = 1
	}
	var counts []int
	for n := 1; n < max; n *= 2 {
		counts = append(counts, n)
	}
	return append(counts, max)
}

// SweepCurve runs the workload at each worker count (ascending) with a fresh
// engine per point and folds the points into one Result: the record of the
// highest count, carrying the whole curve in Scaling. mkEngine receives the
// point's worker count so per-node state (engine.Options.Nodes) can match.
func SweepCurve(mkEngine func(workers int) (engine.Engine, error), w Workload, workerCounts []int, opt Options) (Result, error) {
	if len(workerCounts) == 0 {
		return Result{}, fmt.Errorf("harness: SweepCurve needs at least one worker count")
	}
	curve := make([]ScalingPoint, 0, len(workerCounts))
	var last Result
	for _, n := range workerCounts {
		eng, err := mkEngine(n)
		if err != nil {
			return Result{}, err
		}
		o := opt
		o.Workers = n
		r, err := Run(eng, w, o)
		if err != nil {
			return Result{}, err
		}
		p := ScalingPoint{Workers: n, Throughput: r.Throughput, AbortRate: r.Stats.AbortRate()}
		if r.Latency != nil {
			p.P50, p.P99, p.P999 = r.Latency.P50, r.Latency.P99, r.Latency.P999
		}
		curve = append(curve, p)
		last = r
	}
	last.Scaling = curve
	return last, nil
}

// SweepAcross runs a scaling curve for each workload on each named backend —
// the cross-engine Figure 2 outer loop. Each engine/workload pair yields one
// Result (see SweepCurve); engOpt.Nodes is overridden per point to match the
// worker count.
func SweepAcross(engineNames []string, mkWorkloads func() []Workload, workerCounts []int, engOpt engine.Options, opt Options) ([]Result, error) {
	var results []Result
	for _, name := range engineNames {
		for _, w := range mkWorkloads() {
			r, err := SweepCurve(func(n int) (engine.Engine, error) {
				o := engOpt
				o.Nodes = n
				return engine.New(name, o)
			}, w, workerCounts, opt)
			if err != nil {
				return nil, fmt.Errorf("harness: sweep %s on %s: %w", w.Name(), name, err)
			}
			results = append(results, r)
		}
	}
	return results, nil
}
