package latency

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10}, {time.Microsecond, 9}, {time.Millisecond, 19},
		{time.Second, 29}, {time.Duration(1)<<62 + 1, 62},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestGoldenPercentiles drives known distributions through the histogram and
// checks the extracted percentiles against hand-computed bucket bounds.
func TestGoldenPercentiles(t *testing.T) {
	t.Run("uniform-single-bucket", func(t *testing.T) {
		// 1000 observations of 100 ns, all in bucket 6 ([64,128)): every
		// percentile is that bucket's upper bound, 127 ns.
		var h Histogram
		for i := 0; i < 1000; i++ {
			h.Record(100)
		}
		b := h.Load()
		for _, q := range []float64{0.5, 0.99, 0.999, 1} {
			if got := b.Quantile(q); got != 127 {
				t.Errorf("q=%v: got %d, want 127", q, got)
			}
		}
	})
	t.Run("bimodal", func(t *testing.T) {
		// 990 fast observations at 100 ns (bucket 6, upper 127) and 10 slow
		// at 10 µs (bucket 13 [8192,16384), upper 16383). p50 and p99 land in
		// the fast mode (ranks 500 and 991 ≤ 990... rank 991 > 990 → slow).
		// Precisely: total=1000; p50 rank 500 → fast; p99 rank 990 → fast
		// (cumulative 990 ≥ 990); p999 rank 999 → slow.
		var h Histogram
		h.RecordN(100, 990)
		h.RecordN(10*time.Microsecond, 10)
		b := h.Load()
		if got := b.Quantile(0.50); got != 127 {
			t.Errorf("p50 = %d, want 127", got)
		}
		if got := b.Quantile(0.99); got != 127 {
			t.Errorf("p99 = %d, want 127", got)
		}
		if got := b.Quantile(0.999); got != 16383 {
			t.Errorf("p999 = %d, want 16383", got)
		}
	})
	t.Run("one-per-bucket", func(t *testing.T) {
		// One observation in each of buckets 0..9 (values 1,2,4,...,512):
		// total 10, p50 rank 5 → bucket 4 (upper 31), p99/p999 rank 10 →
		// bucket 9 (upper 1023).
		var h Histogram
		for i := 0; i < 10; i++ {
			h.Record(time.Duration(int64(1) << i))
		}
		b := h.Load()
		if got := b.Quantile(0.50); got != 31 {
			t.Errorf("p50 = %d, want 31", got)
		}
		if got := b.Quantile(0.999); got != 1023 {
			t.Errorf("p999 = %d, want 1023", got)
		}
	})
	t.Run("empty", func(t *testing.T) {
		var h Histogram
		b := h.Load()
		if got := b.Quantile(0.5); got != 0 {
			t.Errorf("empty quantile = %d, want 0", got)
		}
		if s := b.Summary(); s != nil {
			t.Errorf("empty summary = %+v, want nil", s)
		}
	})
}

// TestMergeCommutative is the property test: for random histogram pairs,
// A's counts accumulated into B's and B's into A's must produce identical
// buckets, and the merged count must be the sum of the parts.
func TestMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var a, b Histogram
		na, nb := rng.Intn(200), rng.Intn(200)
		for i := 0; i < na; i++ {
			a.Record(time.Duration(rng.Int63n(int64(10 * time.Millisecond))))
		}
		for i := 0; i < nb; i++ {
			b.Record(time.Duration(rng.Int63n(int64(10 * time.Millisecond))))
		}
		ab, ba := a.Load(), b.Load()
		ab.Accumulate(b.Load())
		ba.Accumulate(a.Load())
		if ab != ba {
			t.Fatalf("trial %d: merge not commutative", trial)
		}
		if got, want := ab.Count(), uint64(na+nb); got != want {
			t.Fatalf("trial %d: merged count %d, want %d", trial, got, want)
		}
	}
}

// TestConcurrentRecord hammers one histogram from many goroutines; run with
// -race this is the data-race gate, and the final count must be exact (no
// lost updates).
func TestConcurrentRecord(t *testing.T) {
	const workers = 8
	perWorker := 10000
	if testing.Short() {
		perWorker = 2000
	}
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Record(time.Duration(rng.Int63n(int64(time.Millisecond))))
			}
		}(int64(w))
	}
	wg.Wait()
	if got, want := h.Load().Count(), uint64(workers*perWorker); got != want {
		t.Errorf("count = %d, want %d (lost updates)", got, want)
	}
}

func TestSubDelta(t *testing.T) {
	var h Histogram
	h.RecordN(100, 5)
	before := h.Load()
	h.RecordN(100, 3)
	h.Record(time.Second)
	delta := h.Load().Sub(before)
	if got := delta.Count(); got != 4 {
		t.Errorf("delta count = %d, want 4", got)
	}
	if delta[6] != 3 || delta[29] != 1 {
		t.Errorf("delta buckets wrong: %v", delta[:32])
	}
}

func TestSummaryValidate(t *testing.T) {
	var h Histogram
	h.RecordN(100, 990)
	h.RecordN(10*time.Microsecond, 10)
	s := h.Load().Summary()
	if err := s.Validate(); err != nil {
		t.Fatalf("healthy summary rejected: %v", err)
	}
	// Round-trip through JSON (what benchcheck actually sees).
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var rt Summary
	if err := json.Unmarshal(data, &rt); err != nil {
		t.Fatal(err)
	}
	if err := rt.Validate(); err != nil {
		t.Fatalf("round-tripped summary rejected: %v", err)
	}

	bad := *s
	bad.Count++
	if err := bad.Validate(); err == nil {
		t.Error("count/bucket mismatch must be rejected")
	}
	bad = *s
	bad.P99 = bad.P999 + 1
	if err := bad.Validate(); err == nil {
		t.Error("tampered percentile must be rejected")
	}
	bad = *s
	bad.Buckets = make([]uint64, NumBuckets+1)
	if err := bad.Validate(); err == nil {
		t.Error("oversized bucket array must be rejected")
	}
	var nilSum *Summary
	if err := nilSum.Validate(); err == nil {
		t.Error("nil summary must be rejected")
	}
	if nilSum.String() != "-" {
		t.Error("nil summary String should render as -")
	}
	var empty Summary
	if err := empty.Validate(); err == nil {
		t.Error("zero-observation summary must be rejected")
	}
}

// TestAllocBudget ratchets Record at 0 allocs/op: the histogram sits on the
// per-transaction hot path of every harness run, and the PR-4/5 work got the
// value-based engines to literal zero allocations per commit — the
// measurement layer must not hand that back.
func TestAllocBudget(t *testing.T) {
	var h Histogram
	d := 100 * time.Nanosecond
	if got := testing.AllocsPerRun(1000, func() {
		h.Record(d)
		h.RecordN(d, 3)
	}); got != 0 {
		t.Errorf("Record allocates %.1f allocs/op, budget is 0", got)
	}
}
