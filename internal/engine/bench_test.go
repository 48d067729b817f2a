package engine

import "testing"

// BenchmarkScan256 is the engine-layer twin of internal/core's Scan256: one
// declared read-only transaction summing 256 cells through Get[int64], after
// every cell was written once (so LSA heads carry a commit time, as under
// the repo benchmark's mem_bank audit). The gap to core's figure for
// lsa/shared is the cost of the typed accessor and the adapter; the other
// backends price the same scan on their own read path. Run with
//
//	go test -run '^$' -bench Scan256 -benchmem ./internal/engine
func BenchmarkScan256(b *testing.B) {
	const cells = 256
	for _, name := range []string{"lsa/shared", "norec", "tl2", "glock"} {
		b.Run(name, func(b *testing.B) {
			eng := MustNew(name, Options{Nodes: 1})
			cs := make([]Cell, cells)
			var want int64
			for i := range cs {
				cs[i] = eng.NewCell(int64(0))
				want += int64(i)
			}
			th := eng.Thread(0)
			for i, c := range cs {
				if err := th.Run(func(tx Txn) error { return Set(tx, c, int64(i)) }); err != nil {
					b.Fatal(err)
				}
			}
			var sum int64
			fn := func(tx Txn) error {
				sum = 0
				for _, c := range cs {
					n, err := Get[int64](tx, c)
					if err != nil {
						return err
					}
					sum += n
				}
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := th.RunReadOnly(fn); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if sum != want {
				b.Fatalf("sum = %d, want %d", sum, want)
			}
		})
	}
}
