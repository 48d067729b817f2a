// Package latency provides the fixed-log-bucket histogram behind the bench
// snapshot's latency percentiles. One histogram is 64 power-of-2 buckets of
// atomic counters: bucket i counts observations in [2^i, 2^(i+1)) nanoseconds
// (bucket 0 additionally absorbs 0 and 1 ns, and anything non-positive), so
// Record is a bits.Len64 plus one atomic add — zero allocations, no locks, no
// time-varying state — and histograms merge across workers by adding bucket
// arrays. The price is resolution: a quantile is only known to within its
// bucket, and every extraction reports the bucket's inclusive upper bound
// (2^(i+1)−1 ns), a deliberately conservative "at most this" figure. At ~2×
// resolution per bucket the shape of a latency distribution — and any
// regression that moves a percentile across a power of two — survives, which
// is what the snapshot trajectory needs; exact order statistics would cost
// per-sample storage on the hottest path in the repository.
package latency

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of power-of-2 buckets; 64 covers every positive
// int64 nanosecond count (≈292 years) so Record never range-checks.
const NumBuckets = 64

// Histogram is a concurrency-safe fixed-bucket latency histogram. The zero
// value is ready to use. Record/RecordN may be called from any number of
// goroutines; Load takes an atomic-per-bucket snapshot that is consistent
// enough for interval deltas (each bucket is monotone).
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
}

// bucketOf returns the bucket index for a duration: floor(log2(ns)), with
// everything below 2 ns in bucket 0.
func bucketOf(d time.Duration) int {
	ns := int64(d)
	if ns < 2 {
		return 0
	}
	return bits.Len64(uint64(ns)) - 1
}

// Record counts one observation. It performs no allocation and no locking —
// safe on the per-transaction hot path (ratcheted by TestAllocBudget).
func (h *Histogram) Record(d time.Duration) {
	h.buckets[bucketOf(d)].Add(1)
}

// RecordN counts n observations of the same duration — the per-attempt retry
// feed uses it to charge a step's mean attempt latency once per attempt.
func (h *Histogram) RecordN(d time.Duration, n uint64) {
	h.buckets[bucketOf(d)].Add(n)
}

// Load snapshots the bucket counters into a plain value for analysis.
func (h *Histogram) Load() Buckets {
	var b Buckets
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
	}
	return b
}

// Buckets is a plain (non-atomic) bucket array — the analysis-side value the
// harness diffs, merges and summarizes outside the measured interval.
type Buckets [NumBuckets]uint64

// Sub returns b − o per bucket. Use with two Load snapshots of the same
// histogram (counters are monotone, so the delta never underflows).
func (b Buckets) Sub(o Buckets) Buckets {
	var out Buckets
	for i := range b {
		out[i] = b[i] - o[i]
	}
	return out
}

// Accumulate adds o into b — the cross-worker merge on plain values.
func (b *Buckets) Accumulate(o Buckets) {
	for i := range b {
		b[i] += o[i]
	}
}

// Count returns the total number of observations.
func (b Buckets) Count() uint64 {
	var n uint64
	for i := range b {
		n += b[i]
	}
	return n
}

// upperBound returns the largest nanosecond value bucket i can hold.
func upperBound(i int) int64 {
	if i >= 62 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<(i+1) - 1
}

// Quantile returns the inclusive upper bound of the bucket holding the q-th
// order statistic (0 < q ≤ 1), i.e. a conservative "q of observations took at
// most this long". Returns 0 when the histogram is empty.
func (b Buckets) Quantile(q float64) time.Duration {
	total := b.Count()
	if total == 0 {
		return 0
	}
	// Rank of the order statistic, 1-based: ceil(q·total), clamped to [1,total].
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for i := range b {
		seen += b[i]
		if seen >= rank {
			return time.Duration(upperBound(i))
		}
	}
	return time.Duration(upperBound(NumBuckets - 1))
}

// Summary condenses the buckets into the snapshot's latency block. Returns
// nil for an empty histogram (the record then omits the block entirely).
func (b Buckets) Summary() *Summary {
	count := b.Count()
	if count == 0 {
		return nil
	}
	last := 0
	for i := range b {
		if b[i] != 0 {
			last = i
		}
	}
	s := &Summary{
		Count:   count,
		Buckets: append([]uint64(nil), b[:last+1]...),
		P50:     int64(b.Quantile(0.50)),
		P99:     int64(b.Quantile(0.99)),
		P999:    int64(b.Quantile(0.999)),
	}
	return s
}

// Summary is the JSON form of a histogram: the bucket array (trailing zero
// buckets trimmed; index i counts observations in [2^i, 2^(i+1)) ns) plus the
// extracted percentiles, each the inclusive upper bound of its bucket.
type Summary struct {
	Count   uint64   `json:"count"`
	Buckets []uint64 `json:"buckets"`
	P50     int64    `json:"p50_ns"`
	P99     int64    `json:"p99_ns"`
	P999    int64    `json:"p999_ns"`
}

// buckets reconstitutes the full-width bucket array.
func (s *Summary) buckets() (Buckets, error) {
	var b Buckets
	if len(s.Buckets) > NumBuckets {
		return b, fmt.Errorf("latency: summary has %d buckets, max %d", len(s.Buckets), NumBuckets)
	}
	copy(b[:], s.Buckets)
	return b, nil
}

// Validate checks internal consistency: the bucket counts must sum to Count,
// and each percentile must equal the value re-extracted from the buckets —
// so a hand-edited or bit-rotted snapshot block fails the benchcheck gate
// rather than skewing a trend silently.
func (s *Summary) Validate() error {
	if s == nil {
		return fmt.Errorf("latency: nil summary")
	}
	b, err := s.buckets()
	if err != nil {
		return err
	}
	if got := b.Count(); got != s.Count {
		return fmt.Errorf("latency: buckets sum to %d, count says %d", got, s.Count)
	}
	if s.Count == 0 {
		return fmt.Errorf("latency: empty summary (zero observations)")
	}
	for _, q := range []struct {
		q    float64
		have int64
		name string
	}{{0.50, s.P50, "p50"}, {0.99, s.P99, "p99"}, {0.999, s.P999, "p999"}} {
		if want := int64(b.Quantile(q.q)); q.have != want {
			return fmt.Errorf("latency: %s_ns = %d, buckets say %d", q.name, q.have, want)
		}
	}
	if s.P50 > s.P99 || s.P99 > s.P999 {
		return fmt.Errorf("latency: percentiles not monotone: p50=%d p99=%d p999=%d", s.P50, s.P99, s.P999)
	}
	return nil
}

// String renders the percentiles compactly for tables and logs.
func (s *Summary) String() string {
	if s == nil {
		return "-"
	}
	return fmt.Sprintf("p50=%v p99=%v p999=%v (n=%d)",
		time.Duration(s.P50), time.Duration(s.P99), time.Duration(s.P999), s.Count)
}
