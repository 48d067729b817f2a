// Ablation benchmark for the engine's own design knob, the version history
// depth. It is not a paper figure (those live in bench_test.go, indexed by
// README's internal/experiments row); it quantifies what a deeper history
// buys read-only scans.
package tstm_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/timebase"
)

// scanUnderUpdates runs one reader doing s-object read-only scans against
// one updater rewriting the table, and reports the reader's abort rate.
func scanUnderUpdates(b *testing.B, cfg core.Config, scan int) {
	b.Helper()
	rt := core.MustRuntime(cfg)
	objs := make([]*core.Object, scan)
	for i := range objs {
		objs[i] = core.NewObject(0)
	}
	var stop sync.WaitGroup
	done := make(chan struct{})
	stop.Add(1)
	go func() {
		defer stop.Done()
		th := rt.Thread(1)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			o := objs[i%len(objs)]
			_ = th.Run(func(tx *core.Tx) error {
				v, err := tx.Read(o)
				if err != nil {
					return err
				}
				return tx.Write(o, v.(int)+1)
			})
		}
	}()
	reader := rt.Thread(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reader.RunReadOnly(func(tx *core.Tx) error {
			for k := 0; k < scan; k++ {
				if _, err := tx.Read(objs[k]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(done)
	stop.Wait()
	rs := reader.Stats()
	b.ReportMetric(rs.AbortRate(), "reader-aborts/attempt")
}

// BenchmarkAblation_MaxVersions sweeps the history depth: deeper history
// lets read-only scans dodge concurrent updates (fewer retries per scan),
// at the cost of keeping old values alive.
func BenchmarkAblation_MaxVersions(b *testing.B) {
	for _, mv := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("versions=%d", mv), func(b *testing.B) {
			scanUnderUpdates(b, core.Config{
				TimeBase:    timebase.NewSharedCounter(),
				MaxVersions: mv,
			}, 64)
		})
	}
}
