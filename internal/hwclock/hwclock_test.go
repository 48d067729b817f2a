package hwclock

import (
	"sync"
	"testing"
	"time"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"mmtimer", MMTimerConfig(16), true},
		{"ideal", IdealConfig(4), true},
		{"zero hz", Config{TickHz: 0, Nodes: 1}, false},
		{"zero nodes", Config{TickHz: 1000, Nodes: 0}, false},
		{"negative latency", Config{TickHz: 1000, Nodes: 1, ReadLatencyTicks: -1}, false},
		{"negative jitter", Config{TickHz: 1000, Nodes: 1, JitterTicks: -3}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if (err == nil) != c.ok {
				t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
			}
		})
	}
}

func TestNowAdvances(t *testing.T) {
	d := New(IdealConfig(1))
	a := d.Now()
	time.Sleep(time.Millisecond)
	b := d.Now()
	if b <= a {
		t.Fatalf("Now did not advance: %d then %d", a, b)
	}
}

func TestNodeReadStrictlyMonotonicPerNode(t *testing.T) {
	d := New(Config{TickHz: 1_000_000_000, Nodes: 2, JitterTicks: 100, MaxOffsetTicks: 50, Seed: 1})
	for node := 0; node < 2; node++ {
		last := d.NodeRead(node)
		for i := 0; i < 2000; i++ {
			v := d.NodeRead(node)
			if v <= last {
				t.Fatalf("node %d read went backwards: %d then %d", node, last, v)
			}
			last = v
		}
	}
}

func TestNodeReadMonotonicUnderConcurrency(t *testing.T) {
	d := New(Config{TickHz: 1_000_000_000, Nodes: 1, JitterTicks: 20, Seed: 9})
	const workers = 8
	var wg sync.WaitGroup
	bad := make(chan int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(-1)
			for i := 0; i < 1000; i++ {
				v := d.NodeRead(0)
				if v <= last {
					bad <- v
					return
				}
				last = v
			}
		}()
	}
	wg.Wait()
	close(bad)
	if v, ok := <-bad; ok {
		t.Fatalf("concurrent reads of one register not strictly monotonic (saw %d)", v)
	}
}

func TestOffsetsWithinBound(t *testing.T) {
	const bound = 500
	d := New(Config{TickHz: 1_000_000_000, Nodes: 32, MaxOffsetTicks: bound, Seed: 11})
	nonzero := 0
	for i := 0; i < d.Nodes(); i++ {
		off := d.TrueOffset(i)
		if off < -bound || off > bound {
			t.Errorf("node %d offset %d outside ±%d", i, off, bound)
		}
		if off != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("all 32 offsets are zero; offset injection appears broken")
	}
}

func TestZeroOffsetConfigHasZeroOffsets(t *testing.T) {
	d := New(MMTimerConfig(8))
	for i := 0; i < d.Nodes(); i++ {
		if d.TrueOffset(i) != 0 {
			t.Fatalf("perfectly synchronized config has nonzero offset on node %d", i)
		}
	}
}

func TestReadLatencyIsPhysical(t *testing.T) {
	// 1 MHz, 100-tick latency → each read must take ≥ 100 µs.
	d := New(Config{TickHz: 1_000_000, Nodes: 1, ReadLatencyTicks: 100})
	start := time.Now()
	const reads = 10
	for i := 0; i < reads; i++ {
		d.NodeRead(0)
	}
	if el := time.Since(start); el < reads*100*time.Microsecond {
		t.Errorf("%d reads took %v, want ≥ %v", reads, el, reads*100*time.Microsecond)
	}
}

func TestNodeReadTracksTrueTime(t *testing.T) {
	d := New(Config{TickHz: 1_000_000_000, Nodes: 4, MaxOffsetTicks: 100, JitterTicks: 30, Seed: 5})
	worst := d.Config().MaxErrorTicks()
	for node := 0; node < 4; node++ {
		for i := 0; i < 100; i++ {
			before := d.Now()
			v := d.NodeRead(node)
			after := d.Now()
			if v < before-worst || v > after+worst {
				t.Fatalf("node %d read %d outside [%d, %d] ± %d", node, v, before, after, worst)
			}
		}
	}
}

func TestMaxErrorTicks(t *testing.T) {
	c := Config{TickHz: 1000, Nodes: 1, MaxOffsetTicks: 40, JitterTicks: 7}
	if got := c.MaxErrorTicks(); got != 48 {
		t.Errorf("MaxErrorTicks = %d, want 40+7+1 = 48", got)
	}
}

func TestTickPeriod(t *testing.T) {
	d := New(Config{TickHz: 20_000_000, Nodes: 1})
	if got := d.tickPeriod; got != 50*time.Nanosecond {
		t.Errorf("20 MHz tick period = %v, want 50ns", got)
	}
}
