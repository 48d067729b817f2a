package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
)

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outcome is a measured phase plus the verdict on the instance's outputs.
type outcome struct {
	phase
	attempted, failed uint64
}

// drive measures inst, verifies its outputs and closes it. A failed check
// counts as a failed operation: a change cannot get faster by getting wrong.
func drive(sp spec, inst instance, seconds int, tr *tracer) (outcome, error) {
	p := measure(inst.runners(), warmup, seconds, sp.latStride, tr, sp.traceStride)
	o := outcome{phase: p, attempted: p.totalOps, failed: p.failedOps}
	checks, err := inst.verify(p.totalOps - p.failedOps)
	o.attempted += uint64(checks)
	if err != nil {
		o.failed++
		err = fmt.Errorf("output check failed: %w", err)
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	return o, err
}

// add folds a further segment into o.
func (o *outcome) add(seg outcome) {
	o.seconds += seg.seconds
	o.slices = append(o.slices, seg.slices...)
	o.ops += seg.ops
	o.mallocs += seg.mallocs
	o.latencies = append(o.latencies, seg.latencies...)
	o.attempted += seg.attempted
	o.failed += seg.failed
}

func (st *stamp) record(o outcome) {
	st.MeasuredSeconds = o.seconds
	st.Slices = len(o.slices)
	st.LatencySamples = len(o.latencies)
}

// segments is how many stretches the measured seconds of an untraced run are
// split into. Before each, a burst of set-up repetitions runs and its last
// instance is the one measured, so that the repetitions behind setup_s are
// spread over the whole run and one slow spell of the host cannot own all of
// them. Every instance is verified.
const segments = 6

// runEndToEnd is the untraced run. It returns the gated metrics in the
// result and, beside it, the timing metrics that do not repeat well enough
// on a shared host to be gated.
func runEndToEnd(sp spec, seed int64, seconds int, scratch string, st *stamp) (res result, ungated metrics, err error) {
	w := sp.new()
	if err := w.prepare(seed, scratch); err != nil {
		return res, nil, err
	}
	var o outcome
	var setups []float64
	for i := 0; i < segments; i++ {
		secs := seconds / segments
		if i < seconds%segments {
			secs++
		}
		if secs == 0 {
			break
		}
		burst, inst, serr := timeSetups(w)
		if serr != nil {
			return res, nil, serr
		}
		setups = append(setups, burst...)
		seg, derr := drive(sp, inst, secs, nil)
		o.add(seg)
		if err == nil {
			err = derr
		}
	}
	slices.Sort(o.latencies)
	st.record(o)
	st.Setups = len(setups)

	t := timingOf(o.phase)
	ungated = metrics{}
	ungated.set("e2e.tx_per_s", t.txPerS, "1/s")
	ungated.set("e2e.cpu_us_per_op", t.cpuUsPerOp, "us")
	ungated.set("e2e.p50_us", t.p50Us, "us")
	ungated.set("e2e.p99_us", p99(o.latencies), "us")
	m := metrics{}
	m.set("fast_us", float64(percentile(o.latencies, sp.fastPct))/1e3, "us")
	m.set("allocs_per_op_plus1", 1+float64(o.mallocs)/float64(max(o.ops, 1)), "count")
	m.set("setup_s", slices.Min(setups), "s")
	return result{Correct: o.failed == 0 && err == nil, Attempted: o.attempted, Failed: o.failed, Metrics: m}, ungated, err
}

// p99 is the 99th percentile in microseconds, or with fewer than 1000
// samples the highest percentile that has at least ten samples beyond it.
func p99(sorted []uint32) float64 {
	return float64(percentile(sorted, min(99, tailPercentile(len(sorted))))) / 1e3
}

// traceFileFormat is the span file a traced run leaves behind.
type traceFileFormat struct {
	Stamp  stamp             `json:"stamp"`
	Counts map[string]uint64 `json:"counts"` // the decorated engine's work counts, every operation
	Spans  []spanRecord      `json:"spans"`
}

// runTraced yields the per-layer metrics: the rungs of the layer ladder that
// belong to the workload's layers, then a short untraced and a traced
// measurement of the workload, each on a fresh instance. The gated metrics
// never come from here; the untraced half prices the tracing
// (trace.overhead_frac) and reports the timing metrics that are not gated.
// Every declared metric is printed; one that belongs to a layer this
// workload does not exercise reads 0.
func runTraced(sp spec, man manifest, seed int64, seconds int, scratch, traceFile string, st *stamp) (result, error) {
	st.Traced = true
	m := metrics{}
	for _, d := range man.PerLayer {
		m.set(d.Name, 0, d.Unit)
	}
	res := result{Metrics: m}
	for _, rung := range sp.rungs {
		if err := rung(m, scratch); err != nil {
			return res, err
		}
	}
	if err := checkLadder(m); err != nil {
		return res, err
	}

	w := sp.new()
	if err := w.prepare(seed, scratch); err != nil {
		return res, err
	}
	inst, err := w.setup(nil)
	if err != nil {
		return res, err
	}
	plain, err := drive(sp, inst, max(1, seconds*4/15), nil)
	if err != nil {
		return res, err
	}
	pt := timingOf(plain.phase)
	m.set("e2e.tx_per_s", pt.txPerS, "1/s")
	m.set("e2e.cpu_us_per_op", pt.cpuUsPerOp, "us")
	m.set("e2e.p50_us", pt.p50Us, "us")
	m.set("e2e.p99_us", p99(plain.latencies), "us")
	plain.latencies, plain.slices = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("mem.live_heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")

	tr := newTracer()
	if inst, err = w.setup(tr); err != nil {
		return res, err
	}
	o, err := drive(sp, inst, max(1, seconds/3), tr)
	if err != nil {
		return res, err
	}
	stats, counts := inst.stats() // the counters outlive drive's close
	st.record(o)
	m.set("trace.overhead_frac", 1-timingOf(o.phase).txPerS/pt.txPerS, "frac")

	spans := tr.spansIn(o.from, o.to)
	times := attribute(spans)
	us := func(ns []float64) float64 { return median(ns) / 1e3 }
	m.set("driver.self_us_per_op", us(times[layerDriver].self), "us")
	m.set("engine.run_us_per_op", us(times[layerEngine].total), "us")
	if len(times[layerServe].total) > 0 {
		m.set("stmserve.self_us_per_op", us(times[layerServe].self), "us")
		m.set("stmserve.conn_write_us_per_op", us(times[layerConnWrite].total), "us")
		m.set("stmserve.engine_us_per_op", us(times[layerEngine].total), "us")
	}

	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m.set("engine.attempts_per_commit", ratio(counts.attempts, counts.runs), "count")
	m.set("engine.ro_attempts_per_commit", ratio(counts.roAttempts, counts.roRuns), "count")
	m.set("engine.abort_snapshot_frac", ratio(stats.AbortSnapshot, stats.Aborts), "frac")
	m.set("engine.abort_validation_frac", ratio(stats.AbortValidation, stats.Aborts), "frac")
	m.set("engine.abort_conflict_frac", ratio(stats.AbortConflict, stats.Aborts), "frac")

	res.Attempted = plain.attempted + o.attempted
	res.Failed = plain.failed + o.failed
	res.Correct = res.Failed == 0
	if err := checkMetrics(m, man.PerLayer); err != nil {
		res.Correct = false
		return res, err
	}
	data, err := json.Marshal(traceFileFormat{Stamp: *st, Spans: spanRecords(spans), Counts: map[string]uint64{
		"runs": counts.runs, "attempts": counts.attempts, "ro_runs": counts.roRuns, "ro_attempts": counts.roAttempts,
		"reads": counts.reads, "writes": counts.writes,
	}})
	if err != nil {
		return res, err
	}
	return res, os.WriteFile(traceFile, data, 0o644)
}
