package harness

import (
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/workload"
)

func mkCounterEng() (engine.Engine, error) {
	return engine.New("lsa/shared", engine.Options{})
}

func TestRunValidation(t *testing.T) {
	eng, _ := mkCounterEng()
	w := &workload.Disjoint{Accesses: 2}
	if _, err := Run(eng, w, Options{Workers: 0, Duration: time.Millisecond}); err == nil {
		t.Error("zero workers must be rejected")
	}
	if _, err := Run(eng, w, Options{Workers: 1, Duration: 0}); err == nil {
		t.Error("zero duration must be rejected")
	}
}

// allocatingWorkload allocates on every insert (a list node and its cell),
// so its runs report nonzero allocation telemetry on any engine: the LSA
// core's own update commits allocate nothing in the steady state.
func allocatingWorkload() *workload.IntSet { return &workload.IntSet{} }

func TestRunMeasuresThroughput(t *testing.T) {
	eng, _ := mkCounterEng()
	w := allocatingWorkload()
	res, err := Run(eng, w, Options{Workers: 2, Duration: 50 * time.Millisecond, Warmup: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Txs == 0 {
		t.Error("no transactions measured")
	}
	if len(res.WorkerTxs) != 2 || res.WorkerTxs[0]+res.WorkerTxs[1] != res.Txs {
		t.Errorf("per-worker txs %v do not split %d txs", res.WorkerTxs, res.Txs)
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput = %v", res.Throughput)
	}
	if res.Workers != 2 || res.Workload != w.Name() || res.Engine != "lsa/shared" {
		t.Errorf("metadata wrong: %+v", res)
	}
	if res.String() == "" {
		t.Error("empty Result string")
	}
	if res.AllocsPerCommit <= 0 || res.BytesPerCommit <= 0 {
		t.Errorf("alloc telemetry missing: allocs/commit=%f bytes/commit=%f",
			res.AllocsPerCommit, res.BytesPerCommit)
	}
	if err := res.Validate(); err != nil {
		t.Errorf("healthy run failed validation: %v", err)
	}
}

func TestValidateAllocTelemetryConsistency(t *testing.T) {
	eng, _ := mkCounterEng()
	w := allocatingWorkload()
	res, err := Run(eng, w, Options{Workers: 1, Duration: 20 * time.Millisecond, Warmup: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// One axis zeroed while the other is positive: a stripped field.
	res.AllocsPerCommit = 0
	if err := res.Validate(); err == nil {
		t.Error("allocs=0 with bytes>0 must be rejected (stripped field)")
	}
	res.AllocsPerCommit, res.BytesPerCommit = 10, 0
	if err := res.Validate(); err == nil {
		t.Error("bytes=0 with allocs>0 must be rejected")
	}
	res.AllocsPerCommit, res.BytesPerCommit = -1, -8
	if err := res.Validate(); err == nil {
		t.Error("negative telemetry must be rejected")
	}
	// Both zero is legitimate since the unboxed value lane: engines like
	// glock commit int-valued intervals with zero process-wide allocations.
	res.AllocsPerCommit, res.BytesPerCommit = 0, 0
	if err := res.Validate(); err != nil {
		t.Errorf("zero-allocation interval rejected: %v", err)
	}
}

func TestRunPropagatesInitError(t *testing.T) {
	eng, _ := mkCounterEng()
	w := &workload.Disjoint{Accesses: -1}
	if _, err := Run(eng, w, Options{Workers: 1, Duration: time.Millisecond}); err == nil {
		t.Error("init error must propagate")
	}
}

// failingWorkload errors on the third step of worker 0.
type failingWorkload struct{ boom error }

func (f *failingWorkload) Name() string                              { return "failing" }
func (f *failingWorkload) Init(eng engine.Engine, workers int) error { return nil }
func (f *failingWorkload) Step(eng engine.Engine, th engine.Thread, id int) func() error {
	n := 0
	return func() error {
		if id == 0 {
			if n++; n == 3 {
				return f.boom
			}
		}
		return nil
	}
}

func TestRunPropagatesStepError(t *testing.T) {
	eng, _ := mkCounterEng()
	boom := errors.New("boom")
	_, err := Run(eng, &failingWorkload{boom: boom}, Options{Workers: 2, Duration: 30 * time.Millisecond, Warmup: time.Millisecond})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

// TestValidateDoesNotRequireBoxedCounters: the boxed% telemetry
// (Stats.BoxedCommits) is accepted but never required, so records from
// snapshots that predate the typed value lane — and records from runs whose
// commits all rode the unboxed lane — validate unchanged.
func TestValidateDoesNotRequireBoxedCounters(t *testing.T) {
	r := Result{
		Workload: "bank/64", Engine: "norec", Workers: 2,
		Elapsed: 50 * time.Millisecond, Txs: 10, Throughput: 200,
		AllocsPerCommit: 1, BytesPerCommit: 8,
		Stats: engine.Stats{Commits: 10},
	}
	if err := r.Validate(); err != nil {
		t.Errorf("record without boxed counters rejected: %v", err)
	}
	r.Stats.BoxedCommits = 4
	if err := r.Validate(); err != nil {
		t.Errorf("record with boxed counters rejected: %v", err)
	}
	if got := r.Stats.BoxedShare(); got != 0.4 {
		t.Errorf("BoxedShare = %v, want 0.4", got)
	}
}

// TestRunRecordsLatency: every run carries the commit- and retry-latency
// histograms, self-consistent with the transaction count.
func TestRunRecordsLatency(t *testing.T) {
	eng, _ := mkCounterEng()
	w := &workload.Disjoint{Accesses: 4}
	res, err := Run(eng, w, Options{Workers: 2, Duration: 50 * time.Millisecond, Warmup: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency == nil {
		t.Fatal("no commit-latency summary recorded")
	}
	if res.Latency.Count != res.Txs {
		t.Errorf("latency count %d != txs %d", res.Latency.Count, res.Txs)
	}
	if res.Latency.P50 <= 0 || res.Latency.P99 < res.Latency.P50 || res.Latency.P999 < res.Latency.P99 {
		t.Errorf("percentiles not monotone: p50=%d p99=%d p999=%d",
			res.Latency.P50, res.Latency.P99, res.Latency.P999)
	}
	if res.Retry == nil {
		t.Fatal("no retry-latency summary recorded")
	}
	if res.Retry.Count < res.Latency.Count/2 {
		// Each committed step records ≥ 1 attempt; halving absorbs the
		// snapshot skew between the two probes.
		t.Errorf("retry count %d implausibly low for %d commits", res.Retry.Count, res.Latency.Count)
	}
	if err := res.Validate(); err != nil {
		t.Errorf("latency-carrying run failed validation: %v", err)
	}
}

// TestValidateLatencyConsistency: when a record carries a latency block it
// must be internally consistent; records without one (legacy snapshots)
// still validate.
func TestValidateLatencyConsistency(t *testing.T) {
	eng, _ := mkCounterEng()
	w := &workload.Disjoint{Accesses: 4}
	res, err := Run(eng, w, Options{Workers: 1, Duration: 30 * time.Millisecond, Warmup: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	legacy := res
	legacy.Latency, legacy.Retry = nil, nil
	if err := legacy.Validate(); err != nil {
		t.Errorf("legacy record without latency rejected: %v", err)
	}
	tampered := res
	sum := *res.Latency
	sum.Count++
	tampered.Latency = &sum
	if err := tampered.Validate(); err == nil {
		t.Error("latency count != txs must be rejected")
	}
	tampered = res
	sum2 := *res.Latency
	sum2.P99 = sum2.P50 - 1
	tampered.Latency = &sum2
	if err := tampered.Validate(); err == nil {
		t.Error("tampered percentiles must be rejected")
	}
}

// TestValidateScalingCurve: curve points must be strictly increasing in
// workers with positive throughput.
func TestValidateScalingCurve(t *testing.T) {
	r := Result{
		Workload: "bank/64", Engine: "norec", Workers: 2,
		Elapsed: 50 * time.Millisecond, Txs: 10, Throughput: 200,
		Stats: engine.Stats{Commits: 10},
	}
	r.Scaling = []ScalingPoint{{Workers: 1, Throughput: 100}, {Workers: 2, Throughput: 200}}
	if err := r.Validate(); err != nil {
		t.Errorf("healthy curve rejected: %v", err)
	}
	r.Scaling = []ScalingPoint{{Workers: 2, Throughput: 100}, {Workers: 2, Throughput: 200}}
	if err := r.Validate(); err == nil {
		t.Error("non-increasing worker counts must be rejected")
	}
	r.Scaling = []ScalingPoint{{Workers: 1, Throughput: 100}, {Workers: 2}}
	if err := r.Validate(); err == nil {
		t.Error("zero-throughput point must be rejected")
	}
}

func TestDefaultWorkerCounts(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{4, []int{1, 2, 4}},
		{6, []int{1, 2, 4, 6}},
		{8, []int{1, 2, 4, 8}},
		{0, []int{1}},
	}
	for _, c := range cases {
		got := DefaultWorkerCounts(c.max)
		if len(got) != len(c.want) {
			t.Errorf("DefaultWorkerCounts(%d) = %v, want %v", c.max, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("DefaultWorkerCounts(%d) = %v, want %v", c.max, got, c.want)
				break
			}
		}
	}
}

// TestSweepCurve folds a two-point sweep into one record carrying the curve.
func TestSweepCurve(t *testing.T) {
	w := &workload.Disjoint{Accesses: 2}
	mk := func(n int) (engine.Engine, error) {
		return engine.New("lsa/shared", engine.Options{Nodes: n})
	}
	r, err := SweepCurve(mk, w, []int{1, 2}, Options{Duration: 30 * time.Millisecond, Warmup: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers != 2 {
		t.Errorf("primary record workers = %d, want the highest count 2", r.Workers)
	}
	if len(r.Scaling) != 2 || r.Scaling[0].Workers != 1 || r.Scaling[1].Workers != 2 {
		t.Fatalf("curve = %+v, want points at workers 1 and 2", r.Scaling)
	}
	for _, p := range r.Scaling {
		if p.Throughput <= 0 {
			t.Errorf("point workers=%d has throughput %f", p.Workers, p.Throughput)
		}
		if p.P50 <= 0 || p.P99 < p.P50 {
			t.Errorf("point workers=%d has bad percentiles %+v", p.Workers, p)
		}
	}
	if err := r.Validate(); err != nil {
		t.Errorf("sweep record failed validation: %v", err)
	}
	if _, err := SweepCurve(mk, w, nil, Options{Duration: time.Millisecond}); err == nil {
		t.Error("empty worker-count list must error")
	}
}
