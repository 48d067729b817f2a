package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The measurement protocol, shared by every workload: a closed loop of
// numWorkers workers in this process; a warm-up (discarded), then the
// measured phase, sampled in slices by this goroutine reading the workers'
// counters. Workers never stop or restart between slices. The process and
// its caches are warm after the first few milliseconds (the program is
// compiled ahead of time); the warm-up covers a fresh instance's first
// collections and connections.
const (
	warmup   = 250 * time.Millisecond
	sliceLen = 500 * time.Millisecond
	// latencyCap bounds a worker's sample buffer; at the strides in specs no
	// workload fills it within the longest phase measured.
	latencyCap = 1 << 21
)

// opRunner is one worker's operation stream on a workload instance.
type opRunner interface {
	// primaryNext reports whether the operation the next step runs is the
	// workload's primary op, the one whose latency is reported.
	primaryNext() bool
	// step runs one operation to completion. An error is a failure: aborts
	// are retried inside the engines and never surface here.
	step() error
}

// worker is one closed-loop client. Each is allocated on its own so that
// the padding keeps the counters the sampler reads off the other worker's
// cache lines.
type worker struct {
	_      [64]byte
	ops    atomic.Uint64 // completed operations
	failed uint64        // read after the worker has stopped
	lat    []uint32      // primary-op latencies of the measured phase, ns
	_      [64]byte
}

type control struct {
	stop      atomic.Bool
	measuring atomic.Bool
}

// loop is the benchmark's hot loop; it allocates nothing.
func (w *worker) loop(c *control, run opRunner, stream int, latStride uint64, tr *tracer, traceStride uint64) {
	var n, prim uint64
	for !c.stop.Load() {
		n++
		timed := false
		if run.primaryNext() {
			prim++
			timed = prim%latStride == 0 && c.measuring.Load() && len(w.lat) < cap(w.lat)
		}
		traced := tr != nil && n%traceStride == 0
		var t0 time.Time
		if traced {
			tr.cur[stream].req.Store(requestID(stream, n))
		}
		if timed || traced {
			t0 = time.Now()
		}
		err := run.step()
		if timed || traced {
			t1 := time.Now()
			if timed {
				d := t1.Sub(t0)
				if d > 1<<32-1 {
					d = 1<<32 - 1
				}
				w.lat = append(w.lat, uint32(d))
			}
			if traced {
				tr.cur[stream].req.Store(0)
				tr.driver[stream].add(requestID(stream, n), int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch)))
			}
		}
		if err != nil {
			w.failed++
		}
		w.ops.Add(1)
	}
}

// tick is the sampler's reading at one slice boundary.
type tick struct {
	at  float64 // seconds since the measured phase began
	ops uint64  // operations completed by all workers
	cpu float64 // process user+sys CPU seconds
}

// slice is the interval between two ticks.
type slice struct {
	from, to float64 // seconds since the measured phase began
	rate     float64 // operations per second
	ops      uint64  // operations completed
	cpu      float64 // CPU seconds used
}

// phase is what one measured phase yields.
type phase struct {
	seconds   float64 // measured wall time
	slices    []slice
	ops       uint64 // operations completed in the measured phase
	totalOps  uint64 // operations completed over the whole run, warm-up included
	failedOps uint64
	mallocs   uint64   // heap objects allocated over the measured phase
	latencies []uint32 // every primary-op sample, ascending
	from, to  int64    // the measured phase on the tracer's clock (traced runs)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measure drives the runners for warm plus seconds and returns the measured
// phase. tr is nil for an untraced run.
func measure(runners []opRunner, warm time.Duration, seconds int, latStride uint64, tr *tracer, traceStride uint64) phase {
	workers := make([]*worker, len(runners))
	var c control
	var wg sync.WaitGroup
	for i, run := range runners {
		w := &worker{lat: make([]uint32, 0, latencyCap)}
		workers[i] = w
		if tr != nil {
			tr.driver[i] = tr.recorder(layerDriver, i)
		}
		wg.Add(1)
		go func(i int, run opRunner) {
			defer wg.Done()
			w.loop(&c, run, i, latStride, tr, traceStride)
		}(i, run)
	}
	totalOps := func() uint64 {
		var n uint64
		for _, w := range workers {
			n += w.ops.Load()
		}
		return n
	}
	nSlices := seconds * int(time.Second/sliceLen)
	ticks := make([]tick, nSlices+1)
	read := func(t *tick, at time.Duration) {
		t.at = at.Seconds()
		t.ops = totalOps()
		t.cpu = cpuSeconds()
	}

	time.Sleep(warm)

	var ms0, ms1 runtime.MemStats
	var p phase
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	if tr != nil {
		p.from = int64(start.Sub(tr.epoch))
	}
	c.measuring.Store(true)
	read(&ticks[0], 0)
	tk := time.NewTicker(sliceLen)
	for i := 1; i <= nSlices; i++ {
		<-tk.C
		read(&ticks[i], time.Since(start))
	}
	tk.Stop()
	c.measuring.Store(false)
	if tr != nil {
		p.to = tr.now()
	}
	runtime.ReadMemStats(&ms1)
	c.stop.Store(true)
	wg.Wait()

	p.seconds = ticks[nSlices].at
	p.ops = ticks[nSlices].ops - ticks[0].ops
	p.totalOps = totalOps()
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.slices = make([]slice, nSlices)
	for i := range p.slices {
		a, b := &ticks[i], &ticks[i+1]
		s := &p.slices[i]
		s.from, s.to = a.at, b.at
		s.ops = b.ops - a.ops
		s.rate = float64(s.ops) / (b.at - a.at)
		s.cpu = b.cpu - a.cpu
	}
	for _, w := range workers {
		p.failedOps += w.failed
		p.latencies = append(p.latencies, w.lat...)
	}
	slices.Sort(p.latencies)
	return p
}

// timing are the three timing metrics of a measured phase, computed over
// all of its slices.
type timing struct {
	txPerS     float64 // median slice rate, not total/elapsed
	cpuUsPerOp float64 // CPU time of the whole phase over its operations
	p50Us      float64 // median primary-op latency
	samples    int     // latency samples behind p50Us
}

func timingOf(p phase) timing {
	rates := make([]float64, len(p.slices))
	var cpu float64
	for i, s := range p.slices {
		rates[i] = s.rate
		cpu += s.cpu
	}
	t := timing{txPerS: median(rates), p50Us: float64(percentile(p.latencies, 50)) / 1e3, samples: len(p.latencies)}
	if p.ops > 0 {
		t.cpuUsPerOp = cpu * 1e6 / float64(p.ops)
	}
	return t
}

// Set-up is repeated in bursts, one before each measured segment, with an
// untimed collection before each repetition: until setupBurst has been spent
// in a burst or maxSetups repetitions are done, at least minSetups. setup_s
// is the fastest repetition of the run. Interference on a shared host is
// one-sided, it slows a set-up and never speeds it up, and it comes in spells
// of minutes: within one set of ten runs the median repetition of mem_bank's
// set-up went from 0.12 to 0.19 ms when the host changed state, the fastest
// from 72 to 73 us. A single set-up is a coin toss altogether (the last
// attempt's single shots of 26 us to 1 ms disagreed by 5-7 % between two sets
// of runs).
const (
	setupBurst = 150 * time.Millisecond
	maxSetups  = 200
	minSetups  = 3
)

// timeSetups runs one burst of w's set-up and returns the duration in
// seconds of each repetition and the last instance built, which is the one
// to measure. Every earlier instance is closed, untimed, before the next is
// built.
func timeSetups(w workload) ([]float64, instance, error) {
	var times []float64
	var total time.Duration
	for {
		runtime.GC()
		t0 := time.Now()
		inst, err := w.setup(nil)
		if err != nil {
			return nil, nil, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		if len(times) >= minSetups && (total >= setupBurst || len(times) >= maxSetups) {
			return times, inst, nil
		}
		if err := inst.close(); err != nil {
			return nil, nil, err
		}
	}
}
