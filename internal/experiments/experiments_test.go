package experiments

import (
	"strings"
	"testing"
	"time"
)

// Experiment tests use tiny durations: they verify plumbing and shape, not
// absolute performance (the bench suite does the real measurements).

func TestFig1SmallRun(t *testing.T) {
	res, err := Fig1(Fig1Config{Nodes: 4, Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measurement.Rounds) != 5 {
		t.Fatalf("rounds = %d, want 5", len(res.Measurement.Rounds))
	}
	out := res.Table.String()
	if !strings.Contains(out, "max error") {
		t.Errorf("table missing header:\n%s", out)
	}
	// Perfectly synchronized device: offsets within errors.
	for _, rr := range res.Measurement.Rounds {
		if rr.MaxAbsOffset > rr.MaxError {
			t.Errorf("round %d: offset %d > error %d on synchronized device",
				rr.Round, rr.MaxAbsOffset, rr.MaxError)
		}
	}
}

func TestFig2SmallRun(t *testing.T) {
	res, err := Fig2(Fig2Config{
		Sizes:    []int{4},
		Threads:  []int{1, 2},
		Duration: 40 * time.Millisecond,
		Warmup:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 size × 2 bases × 2 thread counts.
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Result.Txs == 0 {
			t.Errorf("%s@%d threads: no transactions", p.Engine, p.Threads)
		}
		if p.Result.Stats.AbortConflict != 0 {
			t.Errorf("%s@%d threads: conflicts in disjoint workload", p.Engine, p.Threads)
		}
	}
	if !strings.Contains(res.Table.String(), "lsa/shared") {
		t.Error("table missing counter series")
	}
	if !strings.Contains(res.Table.String(), "lsa/mmtimer") {
		t.Error("table missing MMTimer series")
	}
}

func TestTL2OptSmallRun(t *testing.T) {
	res, err := TL2Opt(Fig2Config{
		Sizes:    []int{4},
		Threads:  []int{2},
		Duration: 30 * time.Millisecond,
		Warmup:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	names := map[string]bool{}
	for _, p := range res.Points {
		names[p.Engine] = true
	}
	if !names["lsa/shared"] || !names["lsa/tl2ts"] {
		t.Errorf("wrong bases measured: %v", names)
	}
}

func TestSyncErrorsSmallRun(t *testing.T) {
	res, err := SyncErrors(SyncErrorsConfig{
		Deviations:  []int64{0, 1000},
		Threads:     4,
		MaxVersions: []int{1, 4},
		Duration:    40 * time.Millisecond,
		Warmup:      10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Throughput <= 0 {
			t.Errorf("dev=%d mv=%d: zero throughput", p.Deviation, p.MaxVersions)
		}
	}
}

func TestBaselinesSmallRun(t *testing.T) {
	// Generous window: on a single-CPU host, short windows can miss a
	// worker's timeslice entirely.
	res, err := Baselines(BaselinesConfig{
		ScanSizes: []int{8},
		Readers:   2,
		Updaters:  2,
		Duration:  250 * time.Millisecond,
		Warmup:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 { // 5 drivers × 1 scan size
		t.Fatalf("points = %d, want 5", len(res.Points))
	}
	seen := map[string]bool{}
	for _, p := range res.Points {
		seen[p.STM] = true
		if p.ScansPerS <= 0 {
			t.Errorf("%s: no scans measured", p.STM)
		}
		if p.UpdPerS <= 0 {
			t.Errorf("%s: no updates measured", p.STM)
		}
	}
	for _, want := range baselineEngines {
		if !seen[want] {
			t.Errorf("missing driver %s", want)
		}
	}
}

func TestBaselinesValidation(t *testing.T) {
	_, err := Baselines(BaselinesConfig{ScanSizes: []int{100}, Objects: 10})
	if err == nil {
		t.Error("scan larger than table must be rejected")
	}
}

func TestFig2SimShapes(t *testing.T) {
	res, err := Fig2Sim(Fig2SimConfig{
		Sizes:      []int{10, 100},
		Threads:    []int{1, 16},
		DurationNs: 20_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 sizes × 2 bases × 2 cpu counts.
	if len(res.Points) != 8 {
		t.Fatalf("points = %d, want 8", len(res.Points))
	}
	get := func(size int, tb string, cpus int) Fig2SimPoint {
		for _, p := range res.Points {
			if p.Size == size && p.TimeBase == tb && p.Threads == cpus {
				return p
			}
		}
		t.Fatalf("missing point %d/%s/%d", size, tb, cpus)
		return Fig2SimPoint{}
	}
	// Paper shapes at 16 CPUs, 10 accesses: clock dominates counter.
	if c, k := get(10, "SimCounter", 16), get(10, "SimMMTimer", 16); k.MTxPerS < 2*c.MTxPerS {
		t.Errorf("10 accesses @16: clock %.3f vs counter %.3f — clock must dominate", k.MTxPerS, c.MTxPerS)
	}
	// Single-thread short transactions: counter faster than clock.
	if c, k := get(10, "SimCounter", 1), get(10, "SimMMTimer", 1); k.MTxPerS >= c.MTxPerS {
		t.Errorf("10 accesses @1: clock %.3f should trail counter %.3f", k.MTxPerS, c.MTxPerS)
	}
}

func TestFig2WordSmallRun(t *testing.T) {
	res, err := Fig2Word(Fig2Config{
		Sizes:    []int{4},
		Threads:  []int{1, 2},
		Duration: 50 * time.Millisecond,
		Warmup:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if p.MTxPerS <= 0 {
			t.Errorf("%s@%d: no throughput", p.Engine, p.Threads)
		}
	}
	if !strings.Contains(res.Table.String(), "wordstm@lsa/mmtimer") {
		t.Error("table missing word-engine series")
	}
	if _, err := Fig2Word(Fig2Config{Engines: []string{"tl2"}, Sizes: []int{4}, Threads: []int{1}}); err == nil {
		t.Error("a non-LSA engine has no time base to lend the word engine")
	}
}

func TestFig1DetectsInjectedOffsets(t *testing.T) {
	// With deliberately unsynchronized node clocks, the measured offsets
	// must be visibly nonzero (the experiment can tell a synchronized
	// device from an unsynchronized one).
	res, err := Fig1(Fig1Config{Nodes: 4, Rounds: 5, OffsetTicks: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Measurement.MaxAbsOffset(); got < 100 {
		t.Errorf("max |offset| = %d ticks; injected ±5000-tick offsets should be visible", got)
	}
}
