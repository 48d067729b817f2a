// Benchmarks regenerating every figure and measured claim of the paper's
// evaluation (§4). Mapping (see README's internal/experiments row and its
// "Build, test, bench" commands for the full experiment index):
//
//	BenchmarkFig1_ClockComparison   — Figure 1: clock synchronization errors
//	BenchmarkFig2_RealSTM           — Figure 2 on the real engine (this host)
//	BenchmarkFig2_SimMachine        — Figure 2 on the simulated 16-CPU ccNUMA machine
//	BenchmarkTL2CounterOpt          — §4.2: TL2 commit-timestamp sharing
//	BenchmarkSyncErrorAborts        — §4.3: deviation vs abort behaviour
//	BenchmarkBaselines_*            — §1.2: read scans vs TL2/validating STMs
//	BenchmarkWordVsObjectSTM        — §1.1: word- vs object-based LSA engines
//	BenchmarkTimeBaseOps            — micro: GetTime/GetNewTS per time base
//	BenchmarkTxOps                  — micro: read/write/commit path costs
//
// The ablation benchmark for the engine's own design knob (history depth)
// lives in ablation_bench_test.go.
//
// Custom metrics: tx/s (or scans/s) is the figure's y-axis; ns/op reflects
// per-transaction latency. Absolute values on this host are not the paper's
// Altix values; README's bench snapshot section records measured numbers.
package tstm_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/hwclock"
	"repro/internal/simmachine"
	"repro/internal/timebase"
	"repro/internal/wordstm"
	"repro/internal/workload"
)

// benchThreads is the sweep used by the real-STM benchmarks. On a 2-CPU
// host every point past 2 threads measures overhead under interleaving, not
// parallel speedup; the simulated-machine benchmarks cover the scaling
// shape.
var benchThreads = []int{1, 2, 4, 8, 16}

// BenchmarkFig1_ClockComparison measures clock-comparison rounds against
// the simulated MMTimer and reports the observed error bound (Figure 1's
// headline number) as a custom metric.
func BenchmarkFig1_ClockComparison(b *testing.B) {
	dev := hwclock.New(hwclock.Config{TickHz: 20_000_000, ReadLatencyTicks: 7, Nodes: 16})
	b.ResetTimer()
	var maxErr, maxOff int64
	for i := 0; i < b.N; i++ {
		res, err := clocksync.Measure(clocksync.Config{Device: dev, Rounds: 1})
		if err != nil {
			b.Fatal(err)
		}
		if e := res.MaxError(); e > maxErr {
			maxErr = e
		}
		if o := res.MaxAbsOffset(); o > maxOff {
			maxOff = o
		}
	}
	b.ReportMetric(float64(maxErr), "max-error-ticks")
	b.ReportMetric(float64(maxOff), "max-offset-ticks")
}

// runDisjoint drives b.N disjoint-update transactions of the given size
// across the given worker count on a fresh registry engine and reports tx/s.
func runDisjoint(b *testing.B, name string, size, threads int) {
	b.Helper()
	eng := engine.MustNew(name, engine.Options{Nodes: threads})
	runWorkload(b, eng, &workload.Disjoint{Accesses: size}, threads)
}

// runWorkload drives b.N workload steps split across the worker count on
// the given engine and reports tx/s — the benchmark-shaped version of the
// harness loop, usable with any registered backend.
func runWorkload(b *testing.B, eng engine.Engine, w harness.Workload, threads int) {
	b.Helper()
	if err := w.Init(eng, threads); err != nil {
		b.Fatal(err)
	}
	per := b.N / threads
	if per == 0 {
		per = 1
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := eng.Thread(id)
			step := w.Step(eng, th, id)
			for i := 0; i < per; i++ {
				if err := step(); err != nil {
					b.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	b.StopTimer()
	txs := float64(per * threads)
	b.ReportMetric(txs/b.Elapsed().Seconds(), "tx/s")
}

// BenchmarkEngineMatrix runs the bank and intset workloads on every
// registered backend — the cross-engine comparison the unified engine layer
// buys: any future backend shows up here for free.
func BenchmarkEngineMatrix(b *testing.B) {
	const threads = 4
	for _, name := range engine.Names() {
		b.Run("bank/"+name, func(b *testing.B) {
			eng := engine.MustNew(name, engine.Options{Nodes: threads})
			runWorkload(b, eng, &workload.Bank{Accounts: 64, Seed: 1}, threads)
		})
		b.Run("intset/"+name, func(b *testing.B) {
			eng := engine.MustNew(name, engine.Options{Nodes: threads})
			runWorkload(b, eng, &workload.IntSet{KeyRange: 128, Seed: 1}, threads)
		})
	}
}

// BenchmarkSmallTxAllocs tracks the per-commit allocation cost of the
// small-transaction fast paths on the engines whose hot paths are hand-tuned
// to be allocation-lean (run with -benchmem; the allocs/op column is the
// contract — with the typed value lane, norec runs the bank at 0 allocs/op).
// Single worker on purpose: allocs/op then is exactly allocations per
// committed transaction, with no concurrent-abort noise. The same budgets
// are locked in by the TestAllocBudget tests in internal/core,
// internal/norec, internal/tl2, internal/glock and internal/rstmval, and by
// TestIntLaneUnboxed in internal/engine; this benchmark is the place to see
// the bytes and the trend across PRs. CI prints it (-benchmem) in the
// bench-smoke job log.
func BenchmarkSmallTxAllocs(b *testing.B) {
	workloads := func() []harness.Workload {
		return []harness.Workload{
			&workload.Bank{Accounts: 64, Seed: 1},
			&workload.IntSet{KeyRange: 128, Seed: 1},
		}
	}
	for _, name := range []string{"lsa/shared", "norec", "tl2"} {
		for _, w := range workloads() {
			b.Run(name+"/"+w.Name(), func(b *testing.B) {
				eng := engine.MustNew(name, engine.Options{Nodes: 1})
				if err := w.Init(eng, 1); err != nil {
					b.Fatal(err)
				}
				th := eng.Thread(0)
				step := w.Step(eng, th, 0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := step(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReadSetIndex measures the access-set lookup paths. Each
// transaction reads n distinct objects (n access-set entries — one per
// object, a read-modify-write included) and then re-reads them all, so
// every re-read exercises the entry lookup. n ≤ 16 stays on the linear-scan
// fast path with no map in sight (n ≤ 8 in the small attempt record, 16 in
// the wide one); larger n promotes to the map. The transactions only read
// but run through Run: a declared read-only transaction keeps no access set
// to look up.
func BenchmarkReadSetIndex(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 64} {
		b.Run(fmt.Sprintf("reads=%d", n), func(b *testing.B) {
			rt := core.MustRuntime(core.Config{TimeBase: timebase.NewSharedCounter()})
			objs := make([]*core.Object, n)
			for i := range objs {
				objs[i] = core.NewObject(0)
			}
			th := rt.Thread(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := th.Run(func(tx *core.Tx) error {
					for pass := 0; pass < 2; pass++ {
						for _, o := range objs {
							if _, err := tx.Read(o); err != nil {
								return err
							}
						}
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2_RealSTM is Figure 2 on the real engine: disjoint update
// transactions of 10/50/100 accesses, shared counter vs simulated MMTimer.
func BenchmarkFig2_RealSTM(b *testing.B) {
	for _, size := range experiments.DefaultSizes {
		for _, name := range []string{"lsa/shared", "lsa/mmtimer"} {
			for _, threads := range benchThreads {
				b.Run(fmt.Sprintf("accesses=%d/engine=%s/threads=%d", size, name, threads), func(b *testing.B) {
					runDisjoint(b, name, size, threads)
				})
			}
		}
	}
}

// BenchmarkFig2_SimMachine is Figure 2 on the simulated ccNUMA machine —
// the scalability shape the paper plots. The metric Mtx/s matches the
// paper's y-axis unit.
func BenchmarkFig2_SimMachine(b *testing.B) {
	for _, size := range experiments.DefaultSizes {
		for _, kind := range []simmachine.TimeBaseKind{simmachine.Counter, simmachine.HWClock} {
			for _, cpus := range experiments.DefaultThreads {
				b.Run(fmt.Sprintf("accesses=%d/base=%s/cpus=%d", size, kind, cpus), func(b *testing.B) {
					var last simmachine.Result
					for i := 0; i < b.N; i++ {
						r, err := simmachine.Run(simmachine.Config{
							CPUs: cpus, TimeBase: kind, Accesses: size, Duration: 10_000_000,
						})
						if err != nil {
							b.Fatal(err)
						}
						last = r
					}
					b.ReportMetric(last.TxPerSec/1e6, "Mtx/s")
					b.ReportMetric(float64(last.CounterTransfers), "line-transfers")
				})
			}
		}
	}
}

// BenchmarkTL2CounterOpt is the §4.2 comparison: plain fetch-and-add
// counter vs the TL2 sharing counter, on the real engine.
func BenchmarkTL2CounterOpt(b *testing.B) {
	for _, name := range []string{"lsa/shared", "lsa/tl2ts"} {
		for _, threads := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("engine=%s/threads=%d", name, threads), func(b *testing.B) {
				runDisjoint(b, name, 10, threads)
			})
		}
	}
}

// BenchmarkSyncErrorAborts is the §4.3 experiment: the read-write mix on
// externally synchronized clocks with growing advertised deviation. The
// abort rate (reported as aborts/attempt) grows with the deviation; the
// multi-version configuration tolerates more than the single-version one.
func BenchmarkSyncErrorAborts(b *testing.B) {
	for _, mv := range []int{1, 8} {
		for _, dev := range []int64{0, 1_000, 100_000, 10_000_000} {
			b.Run(fmt.Sprintf("versions=%d/dev=%dns", mv, dev), func(b *testing.B) {
				name := "lsa/extsync"
				if dev == 0 {
					name = "lsa/ideal"
				}
				eng := engine.MustNew(name, engine.Options{Nodes: 4, Deviation: dev, MaxVersions: mv})
				runWorkload(b, eng, &experiments.ReadWriteMix{}, 4)
				s := eng.Stats()
				b.ReportMetric(s.AbortRate(), "aborts/attempt")
				b.ReportMetric(float64(s.AbortSnapshot), "snapshot-aborts")
			})
		}
	}
}

// BenchmarkBaselines_ReadScan is the §1.2 comparison: read-only scans of
// growing size under concurrent updates, LSA-RT vs TL2 vs the validating
// STM. The interesting shape is how scans/s decays with scan size.
func BenchmarkBaselines_ReadScan(b *testing.B) {
	const tableSize = 256
	for _, name := range []string{"lsa/shared", "tl2", "rstmval"} {
		for _, scan := range []int{16, 64, 256} {
			b.Run(fmt.Sprintf("stm=%s/scan=%d", name, scan), func(b *testing.B) {
				eng := engine.MustNew(name, engine.Options{Nodes: 1})
				cells := make([]engine.Cell, tableSize)
				for i := range cells {
					cells[i] = eng.NewCell(0)
				}
				th := eng.Thread(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := th.RunReadOnly(func(tx engine.Txn) error {
						for _, c := range cells[:scan] {
							if _, err := tx.Read(c); err != nil {
								return err
							}
						}
						return nil
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTimeBaseOps microbenchmarks the raw time-base operations whose
// relative costs drive Figure 2: counter loads/increments vs hardware
// clock reads.
func BenchmarkTimeBaseOps(b *testing.B) {
	bases := map[string]timebase.TimeBase{
		"counter":    timebase.NewSharedCounter(),
		"tl2counter": timebase.NewTL2Counter(),
		"ideal":      timebase.NewPerfectClock(hwclock.New(hwclock.IdealConfig(1))),
		"mmtimer":    timebase.NewMMTimer(1),
	}
	for name, tb := range bases {
		b.Run("GetTime/"+name, func(b *testing.B) {
			c := tb.Clock(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = c.GetTime()
			}
		})
		b.Run("GetNewTS/"+name, func(b *testing.B) {
			c := tb.Clock(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = c.GetNewTS()
			}
		})
	}
}

// BenchmarkTxOps microbenchmarks the engine's per-transaction paths.
func BenchmarkTxOps(b *testing.B) {
	b.Run("read-only-1", func(b *testing.B) {
		rt := core.MustRuntime(core.Config{TimeBase: timebase.NewSharedCounter()})
		o := core.NewObject(0)
		th := rt.Thread(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = th.RunReadOnly(func(tx *core.Tx) error {
				_, err := tx.Read(o)
				return err
			})
		}
	})
	b.Run("update-1", func(b *testing.B) {
		rt := core.MustRuntime(core.Config{TimeBase: timebase.NewSharedCounter()})
		o := core.NewObject(0)
		th := rt.Thread(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = th.Run(func(tx *core.Tx) error {
				return tx.Write(o, i)
			})
		}
	})
	b.Run("read-modify-write-10", func(b *testing.B) {
		rt := core.MustRuntime(core.Config{TimeBase: timebase.NewSharedCounter()})
		objs := make([]*core.Object, 10)
		for i := range objs {
			objs[i] = core.NewObject(0)
		}
		th := rt.Thread(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = th.Run(func(tx *core.Tx) error {
				for _, o := range objs {
					v, err := tx.Read(o)
					if err != nil {
						return err
					}
					if err := tx.Write(o, v.(int)+1); err != nil {
						return err
					}
				}
				return nil
			})
		}
	})
}

// BenchmarkWordVsObjectSTM compares the two LSA representations (§1.1:
// "both object-based and word-based STMs can be used") on the disjoint
// update workload: the word engine's leaner metadata vs the object engine's
// multi-version flexibility.
func BenchmarkWordVsObjectSTM(b *testing.B) {
	const accesses = 10
	b.Run("object", func(b *testing.B) {
		rt := core.MustRuntime(core.Config{TimeBase: timebase.NewSharedCounter()})
		objs := make([]*core.Object, accesses)
		for i := range objs {
			objs[i] = core.NewObject(0)
		}
		th := rt.Thread(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := th.Run(func(tx *core.Tx) error {
				for _, o := range objs {
					v, err := tx.Read(o)
					if err != nil {
						return err
					}
					if err := tx.Write(o, v.(int)+1); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("word", func(b *testing.B) {
		s, err := wordstm.New(timebase.NewSharedCounter(), accesses)
		if err != nil {
			b.Fatal(err)
		}
		th := s.Thread(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := th.Run(func(tx *wordstm.Tx) error {
				for a := 0; a < accesses; a++ {
					v, err := tx.Load(wordstm.Addr(a))
					if err != nil {
						return err
					}
					if err := tx.Store(wordstm.Addr(a), v+1); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
