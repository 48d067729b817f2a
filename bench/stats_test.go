package main

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{100, 100, 100, 1, 1e9}, 100}, // one wild slice moves nothing
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileIsExact(t *testing.T) {
	s := make([]uint32, 1000) // 1..1000
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want uint32
	}{
		{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}, {0, 1},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
	// No buckets, no interpolation: the result is always one of the samples.
	odd := []uint32{10, 1000, 100000}
	if got := percentile(odd, 50); got != 1000 {
		t.Errorf("percentile(%v, 50) = %d, want 1000", odd, got)
	}
}

func TestTailPercentile(t *testing.T) {
	// The highest ladder percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10_000, 99.9}, {100_000, 99.99}, {1_000_000, 99.999}, {50_000_000, 99.999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestTimingIsOverAllSlices(t *testing.T) {
	// Five slices of 0.5 s; a stall took most of the fourth. tx_per_s is
	// the median slice rate, which the stall moves by one rank and no more
	// (total/elapsed would report 860); CPU time is that of the whole
	// phase over all of its operations; the latency median is over every
	// sample, the stalled ones included.
	p := phase{
		slices: []slice{
			{rate: 1000, ops: 500, cpu: 0.5},
			{rate: 1020, ops: 510, cpu: 0.5},
			{rate: 980, ops: 490, cpu: 0.5},
			{rate: 300, ops: 150, cpu: 0.2},
			{rate: 1000, ops: 500, cpu: 0.5},
		},
		ops:       2150,
		latencies: []uint32{900, 1000, 1000, 1100, 2000, 9000, 9000},
	}
	got := timingOf(p)
	if got.txPerS != 1000 {
		t.Errorf("txPerS = %v, want 1000 (the median slice)", got.txPerS)
	}
	if want := 2.2 * 1e6 / 2150; math.Abs(got.cpuUsPerOp-want) > 1e-9 {
		t.Errorf("cpuUsPerOp = %v, want %v", got.cpuUsPerOp, want)
	}
	if got.p50Us != 1.1 || got.samples != 7 {
		t.Errorf("p50Us = %v over %d samples, want 1.1 over 7", got.p50Us, got.samples)
	}
	if got := timingOf(phase{}); got != (timing{}) {
		t.Errorf("timing of an empty phase = %+v", got)
	}
}

// countingRunner is a synthetic workload: every third op is primary.
type countingRunner struct {
	_    [64]byte
	n    uint64
	fail uint64 // fail every fail-th op (0: never)
	_    [64]byte
}

var errSynthetic = errors.New("synthetic failure")

func (r *countingRunner) primaryNext() bool { return (r.n+1)%3 == 0 }

func (r *countingRunner) step() error {
	r.n++
	time.Sleep(50 * time.Microsecond)
	if r.fail != 0 && r.n%r.fail == 0 {
		return errSynthetic
	}
	return nil
}

func TestMeasureAccountsForEveryOp(t *testing.T) {
	a, b := &countingRunner{}, &countingRunner{fail: 100}
	tr := newTracer()
	p := measure([]opRunner{a, b}, 100*time.Millisecond, 1, 2, tr, 10)
	if p.totalOps != a.n+b.n {
		t.Errorf("totalOps = %d, runners ran %d", p.totalOps, a.n+b.n)
	}
	if want := b.n / 100; p.failedOps != want {
		t.Errorf("failedOps = %d, want %d", p.failedOps, want)
	}
	if want := int(time.Second / sliceLen); len(p.slices) != want {
		t.Fatalf("%d slices, want %d", len(p.slices), want)
	}
	var ops uint64
	for i, s := range p.slices {
		ops += s.ops
		if s.to <= s.from || (i > 0 && s.from != p.slices[i-1].to) {
			t.Fatalf("slice %d covers [%v, %v)", i, s.from, s.to)
		}
	}
	if ops != p.ops || ops == 0 || ops > p.totalOps {
		t.Errorf("slices hold %d ops, phase %d, whole run %d", ops, p.ops, p.totalOps)
	}
	// Every second primary op (one op in six) of the measured phase is a
	// sample.
	if samples := len(p.latencies); samples < int(ops)/7 || samples > int(ops)/5 {
		t.Errorf("%d samples for %d ops", samples, ops)
	}
	if !slices.IsSorted(p.latencies) || p.latencies[0] < 50_000 {
		t.Errorf("latencies unsorted or shorter than the op: first %d ns", p.latencies[0])
	}
	// One op in ten is traced, as a driver.op span on the worker's stream.
	spans := tr.spansIn(0, tr.now())
	if n := uint64(len(spans)); n < p.totalOps/10-2 || n > p.totalOps/10+2 {
		t.Errorf("%d spans for %d ops at stride 10", n, p.totalOps)
	}
	for _, s := range spans {
		if s.layer != layerDriver || s.end-s.start < 50_000 {
			t.Fatalf("bad span %+v", s)
		}
	}
}
