package timebase

import (
	"sync"
	"testing"

	"repro/internal/hwclock"
)

// allBases returns one instance of every time base for table-driven tests.
func allBases(t *testing.T) []TimeBase {
	t.Helper()
	ext, err := NewExtSyncClock(hwclock.New(hwclock.Config{
		TickHz: 1_000_000_000, Nodes: 4, MaxOffsetTicks: 50, JitterTicks: 10, Seed: 42,
	}), 200)
	if err != nil {
		t.Fatalf("NewExtSyncClock: %v", err)
	}
	return []TimeBase{
		NewSharedCounter(),
		NewTL2Counter(),
		NewShardedCounter(4, 16),
		NewPerfectClock(hwclock.New(hwclock.IdealConfig(4))),
		ext,
	}
}

func TestGetNewTSStrictlyLaterThanInvocation(t *testing.T) {
	for _, tb := range allBases(t) {
		t.Run(tb.Name(), func(t *testing.T) {
			c, ord := tb.Clock(0), OrderOf(tb)
			for i := 0; i < 200; i++ {
				before := c.GetTime()
				nts := c.GetNewTS()
				// §2.4: the new timestamp must not be guaranteed-earlier
				// than the invocation time. For exact bases it must be
				// strictly greater; for imprecise bases the masking makes
				// "possibly later" the strongest obtainable guarantee.
				if ord.LaterEq(before, nts) && before != nts {
					t.Fatalf("iteration %d: GetNewTS %v guaranteed earlier than prior GetTime %v", i, nts, before)
				}
				if nts.CID == CIDExact && nts.TS <= before.TS {
					t.Fatalf("iteration %d: exact GetNewTS %v not strictly greater than %v", i, nts, before)
				}
			}
		})
	}
}

func TestPerThreadMonotonic(t *testing.T) {
	for _, tb := range allBases(t) {
		t.Run(tb.Name(), func(t *testing.T) {
			c := tb.Clock(1)
			prev := c.GetTime()
			for i := 0; i < 500; i++ {
				var cur Timestamp
				if i%3 == 0 {
					cur = c.GetNewTS()
				} else {
					cur = c.GetTime()
				}
				if cur.TS < prev.TS && cur.CID == prev.CID {
					t.Fatalf("iteration %d: timestamp went backwards %v → %v", i, prev, cur)
				}
				prev = cur
			}
		})
	}
}

func TestSharedCounterUniqueNewTS(t *testing.T) {
	// The shared counter's fetch-and-add makes concurrent GetNewTS values
	// unique — this is what serializes commits and also what contends.
	sc := NewSharedCounter()
	const workers, per = 8, 1000
	out := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := sc.Clock(w)
			vals := make([]int64, 0, per)
			for i := 0; i < per; i++ {
				vals = append(vals, c.GetNewTS().TS)
			}
			out[w] = vals
		}(w)
	}
	wg.Wait()
	seen := make(map[int64]bool, workers*per)
	for _, vals := range out {
		for _, v := range vals {
			if seen[v] {
				t.Fatalf("duplicate GetNewTS value %d from shared counter", v)
			}
			seen[v] = true
		}
	}
	if got := sc.Now(); got != int64(1+workers*per) {
		t.Errorf("counter = %d after %d increments from 1, want %d", got, workers*per, 1+workers*per)
	}
}

func TestTL2CounterSharesButStaysMonotonic(t *testing.T) {
	tc := NewTL2Counter()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := tc.Clock(w)
			last := int64(0)
			for i := 0; i < per; i++ {
				v := c.GetNewTS().TS
				if v <= last {
					errs <- "GetNewTS not strictly monotonic per thread under sharing"
					return
				}
				last = v
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// Sharing means the counter may advance by less than workers*per.
	if got := tc.Now(); got > int64(1+workers*per) {
		t.Errorf("TL2 counter overshot: %d > %d", got, 1+workers*per)
	}
}

func TestPerfectClockRejectsImpreciseDevice(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPerfectClock over a device with offsets must panic")
		}
	}()
	NewPerfectClock(hwclock.New(hwclock.Config{
		TickHz: 1_000_000_000, Nodes: 2, MaxOffsetTicks: 5,
	}))
}

func TestExtSyncClockRejectsTooSmallBound(t *testing.T) {
	dev := hwclock.New(hwclock.Config{
		TickHz: 1_000_000_000, Nodes: 2, MaxOffsetTicks: 100, JitterTicks: 20,
	})
	if _, err := NewExtSyncClock(dev, 50); err == nil {
		t.Fatal("deviation bound below device worst case must be rejected")
	}
	if _, err := NewExtSyncClock(dev, dev.Config().MaxErrorTicks()); err != nil {
		t.Fatalf("deviation bound at device worst case must be accepted: %v", err)
	}
}

func TestBaseDeviations(t *testing.T) {
	want := map[string]int64{
		"SharedCounter": 0, "TL2Counter": 0, "MMTimer": 0,
		"Sharded(4, w=16)": 8, "ExtSync(dev=200)": 200,
	}
	for _, tb := range allBases(t) {
		if got, ok := want[tb.Name()]; !ok || tb.Deviation() != got {
			t.Errorf("%s: Deviation() = %d, want %d", tb.Name(), tb.Deviation(), got)
		}
	}
}

func TestExtSyncTimestampsCarryNodeCID(t *testing.T) {
	dev := hwclock.New(hwclock.Config{
		TickHz: 1_000_000_000, Nodes: 3, MaxOffsetTicks: 10, Seed: 7,
	})
	ec, err := NewExtSyncClock(dev, 64)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 6; id++ {
		ts := ec.Clock(id).GetTime()
		wantCID := int32(1 + id%3)
		if ts.CID != wantCID {
			t.Errorf("clock %d: CID = %d, want %d", id, ts.CID, wantCID)
		}
	}
}

// nodeCount is a node-clock source of n registers that all read 1.
type nodeCount int

func (n nodeCount) NodeRead(int) int64 { return 1 }
func (n nodeCount) Nodes() int         { return int(n) }

func TestExtSyncRejectsMoreNodesThanClockIDs(t *testing.T) {
	if _, err := NewExtSyncClockFrom(nodeCount(MaxCID+1), 10); err == nil {
		t.Fatalf("%d nodes accepted: their clock IDs do not fit a stamp word", MaxCID+1)
	}
	if _, err := NewExtSyncClockFrom(nodeCount(0), 10); err == nil {
		t.Fatal("a source without nodes accepted")
	}
	ec, err := NewExtSyncClockFrom(nodeCount(MaxCID), 10)
	if err != nil {
		t.Fatalf("%d nodes rejected: %v", MaxCID, err)
	}
	if ts := ec.Clock(MaxCID - 1).GetNewTS(); ts.CID != MaxCID || FromWord(ts.Word()) != ts {
		t.Fatalf("last node's stamp %v does not round-trip its word", ts)
	}
}

func TestExtSyncDeviationBoundHolds(t *testing.T) {
	// The advertised bound must cover the actual |local − true| error,
	// otherwise ⪰ masking would be unsound.
	dev := hwclock.New(hwclock.Config{
		TickHz: 1_000_000_000, Nodes: 8, MaxOffsetTicks: 200, JitterTicks: 50, Seed: 3,
	})
	bound := dev.Config().MaxErrorTicks()
	ec, err := NewExtSyncClock(dev, bound)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 8; id++ {
		c := ec.Clock(id)
		for i := 0; i < 100; i++ {
			before := dev.Now()
			ts := c.GetTime()
			after := dev.Now()
			if ts.TS+bound < before || ts.TS-bound > after {
				t.Fatalf("clock %d read %d outside [%d−%d, %d+%d]", id, ts.TS, before, bound, after, bound)
			}
		}
	}
}

func TestBaseNames(t *testing.T) {
	for _, tb := range allBases(t) {
		if tb.Name() == "" {
			t.Errorf("%T has empty name", tb)
		}
	}
}
