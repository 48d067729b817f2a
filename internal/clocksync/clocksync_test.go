package clocksync

import (
	"testing"

	"repro/internal/hwclock"
	"repro/internal/timebase"
)

func TestMeasureValidation(t *testing.T) {
	dev := hwclock.New(hwclock.IdealConfig(4))
	if _, err := Measure(Config{Rounds: 1}); err == nil {
		t.Error("missing device must be rejected")
	}
	if _, err := Measure(Config{Device: hwclock.New(hwclock.IdealConfig(1)), Rounds: 1}); err == nil {
		t.Error("single-node device must be rejected")
	}
	if _, err := Measure(Config{Device: dev, Rounds: 0}); err == nil {
		t.Error("zero rounds must be rejected")
	}
}

func TestMeasurePerfectClockOffsetsWithinError(t *testing.T) {
	// Against a perfectly synchronized device the estimated offsets must be
	// covered by the error bounds — the paper's Figure 1 observation that
	// "errors are always larger than offsets".
	dev := hwclock.New(hwclock.Config{TickHz: 20_000_000, ReadLatencyTicks: 7, Nodes: 4})
	res, err := Measure(Config{Device: dev, Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 20 {
		t.Fatalf("rounds = %d, want 20", len(res.Rounds))
	}
	for _, rr := range res.Rounds {
		if rr.MaxAbsOffset > rr.MaxError {
			t.Errorf("round %d: offset %d exceeds error %d on a synchronized clock",
				rr.Round, rr.MaxAbsOffset, rr.MaxError)
		}
		if rr.MaxErrorPlusOffset < rr.MaxError {
			t.Errorf("round %d: error+offset %d < error %d", rr.Round, rr.MaxErrorPlusOffset, rr.MaxError)
		}
	}
	if res.MaxError() <= 0 {
		t.Error("measured error must be positive (communication is not free)")
	}
}

func TestMeasureDetectsInjectedOffsets(t *testing.T) {
	// With large injected offsets and a fine-grained cheap-to-read clock,
	// the estimates must recover the true offsets within the error bound.
	const trueBound = 20000
	dev := hwclock.New(hwclock.Config{
		TickHz: 1_000_000_000, Nodes: 4, MaxOffsetTicks: trueBound, Seed: 23,
	})
	res, err := Measure(Config{Device: dev, Rounds: 5, SamplesPerNode: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Final) != 3 {
		t.Fatalf("final estimates = %d, want 3", len(res.Final))
	}
	for _, est := range res.Final {
		truth := dev.TrueOffset(est.Node) - dev.TrueOffset(0)
		diff := est.Offset - truth
		if diff < 0 {
			diff = -diff
		}
		if diff > est.Error {
			t.Errorf("node %d: estimated offset %d vs true %d differs by %d > error bound %d",
				est.Node, est.Offset, truth, diff, est.Error)
		}
	}
}

func TestCorrectedReducesDisagreement(t *testing.T) {
	const trueBound = 50000
	dev := hwclock.New(hwclock.Config{
		TickHz: 1_000_000_000, Nodes: 4, MaxOffsetTicks: trueBound, Seed: 31,
	})
	res, err := Measure(Config{Device: dev, Rounds: 3, SamplesPerNode: 5})
	if err != nil {
		t.Fatal(err)
	}
	cor, err := NewCorrected(dev, res.Final)
	if err != nil {
		t.Fatal(err)
	}
	if cor.Nodes() != 4 {
		t.Errorf("Nodes = %d, want 4", cor.Nodes())
	}
	if cor.Offset(0) != 0 {
		t.Errorf("reference node correction = %d, want 0", cor.Offset(0))
	}
	// Corrected node reads must agree with the *reference node's* clock
	// (true time + node 0's offset) within the residual bound: external
	// synchronization establishes mutual agreement, not absolute truth.
	ref := dev.TrueOffset(0)
	for node := 0; node < 4; node++ {
		before := dev.Now() + ref
		v := cor.NodeRead(node)
		after := dev.Now() + ref
		slack := cor.Bound() + 2
		if v < before-slack || v > after+slack {
			t.Errorf("node %d corrected read %d outside [%d,%d]±%d", node, v, before, after, slack)
		}
	}
}

func TestCorrectedRejectsBadEstimates(t *testing.T) {
	dev := hwclock.New(hwclock.IdealConfig(2))
	if _, err := NewCorrected(nil, nil); err == nil {
		t.Error("nil device must be rejected")
	}
	if _, err := NewCorrected(dev, []NodeEstimate{{Node: 5}}); err == nil {
		t.Error("out-of-range node must be rejected")
	}
}

func TestCorrectedBacksExtSyncTimeBase(t *testing.T) {
	// End-to-end §3.2 pipeline: measure → correct → run the STM time base
	// on the corrected clocks.
	dev := hwclock.New(hwclock.Config{
		TickHz: 1_000_000_000, Nodes: 4, MaxOffsetTicks: 30000, Seed: 7,
	})
	res, err := Measure(Config{Device: dev, Rounds: 3, SamplesPerNode: 5})
	if err != nil {
		t.Fatal(err)
	}
	cor, err := NewCorrected(dev, res.Final)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := timebase.NewExtSyncClockFrom(cor, cor.Bound())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Deviation() != cor.Bound() {
		t.Fatalf("time base deviation %d, want %d", tb.Deviation(), cor.Bound())
	}
	c := tb.Clock(1)
	prev := c.GetTime()
	for i := 0; i < 100; i++ {
		cur := c.GetTime()
		if cur.TS < prev.TS {
			t.Fatalf("corrected time base went backwards: %v → %v", prev, cur)
		}
		prev = cur
	}
}

func TestResultAggregates(t *testing.T) {
	r := &Result{Rounds: []RoundResult{
		{MaxAbsOffset: 3, MaxError: 10},
		{MaxAbsOffset: 7, MaxError: 4},
	}}
	if got := r.MaxError(); got != 10 {
		t.Errorf("MaxError = %d, want 10", got)
	}
	if got := r.MaxAbsOffset(); got != 7 {
		t.Errorf("MaxAbsOffset = %d, want 7", got)
	}
}
