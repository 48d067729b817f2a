// Command stmstress hammers STM consistency invariants under real
// concurrency, across every registered engine, and exits non-zero on any
// violation. It is the long-running companion to the unit tests: run it for
// minutes or hours to gain confidence in the engines on a particular
// machine.
//
//	stmstress -duration 10s
//	stmstress -duration 1m -workers 8 -engine lsa/extsync
//	stmstress -engine tl2,wordstm,rstmval
//	stmstress -engine norec,glock,tl2   the value-based backend family
//	stmstress -engine lsa/extsync -deviation 5000   LSA on a custom clock deviation
//
// The workload mixes bank transfers with read-only audits of the conserved
// total, plus a writer/checker pair whose two cells must always sum to
// zero — torn reads, lost updates, and inconsistent snapshots all surface
// as counted violations. Afterwards the engine's statistics must account
// for the run: every abort classified by reason, and one commit per
// transaction the workers finished (durable engines may count more: their
// snapshot capture commits on a thread of its own).
//
// Runtime diagnostics match cmd/lsabench: -cpuprofile/-memprofile/-trace
// write the standard Go profiles, -http serves expvar and pprof while the
// stress runs — useful for watching a multi-hour session without stopping it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diag"
	// Registers the durable/* wrappers, so the default run covers them too.
	_ "repro/internal/durable"
	"repro/internal/engine"
)

func main() {
	var (
		duration   = flag.Duration("duration", 5*time.Second, "stress duration per engine")
		workers    = flag.Int("workers", 8, "concurrent workers")
		engFlag    = flag.String("engine", "", "comma-separated engines to stress (default: all registered)")
		accounts   = flag.Int("accounts", 32, "bank accounts")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		tracePath  = flag.String("trace", "", "write an execution trace to this file")
		httpAddr   = flag.String("http", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	)
	var opt engine.Options
	opt.BindFlags(flag.CommandLine)
	flag.Parse()
	if opt.Nodes == 0 {
		opt.Nodes = *workers // the flag's 0 default means "match the worker count"
	}

	stopDiag, err := diag.Start(diag.Flags{
		CPUProfile: *cpuProfile, MemProfile: *memProfile, Trace: *tracePath, HTTP: *httpAddr,
	})
	if err != nil {
		fatal(err)
	}

	names := engine.Names()
	if *engFlag != "" {
		names = names[:0]
		for _, n := range strings.Split(*engFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	// Build every engine before stressing any, so a bad name or option
	// fails fast. Without -wal, each durable engine logs to a directory of
	// its own, removed after its run.
	engines := make([]engine.Engine, len(names))
	walDirs := make([]string, len(names))
	for i, n := range names {
		o := opt
		if info, _ := engine.Describe(n); info.Capabilities.Durable && o.WALDir == "" {
			if o.WALDir, err = os.MkdirTemp("", "stmstress-wal-"); err != nil {
				fatal(err)
			}
			walDirs[i] = o.WALDir
		}
		if engines[i], err = engine.New(n, o); err != nil {
			fatal(err)
		}
	}

	failed := false
	for i, eng := range engines {
		err := stress(eng, names[i], *workers, *accounts, *duration)
		if d, ok := eng.(engine.Durable); ok {
			if cerr := d.WALClose(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "stmstress: %s: %v\n", names[i], err)
			failed = true
		}
		if walDirs[i] != "" {
			if err := os.RemoveAll(walDirs[i]); err != nil {
				fmt.Fprintln(os.Stderr, "stmstress:", err)
			}
		}
	}
	// Explicit rather than deferred: os.Exit on the failure path would skip
	// a defer, losing the profiles of exactly the runs worth profiling.
	if err := stopDiag(); err != nil {
		fmt.Fprintln(os.Stderr, "stmstress:", err)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// stress runs transfers, audits, and pair-writers concurrently and checks
// every invariant transactionally.
func stress(eng engine.Engine, name string, workers, accounts int, d time.Duration) error {
	const initial = 1000
	cells := make([]engine.Cell, accounts)
	for i := range cells {
		cells[i] = eng.NewCell(initial)
	}
	pairA, pairB := eng.NewCell(0), eng.NewCell(0)

	var stop atomic.Bool
	var violations atomic.Int64
	var txs atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := eng.Thread(id)
			n := 0
			for !stop.Load() {
				n++
				var err error
				switch n % 4 {
				case 0: // transfer
					from, to := (id+n)%accounts, (id*3+n*7+1)%accounts
					if from == to {
						to = (to + 1) % accounts
					}
					err = th.Run(func(tx engine.Txn) error {
						fv, err := engine.Get[int](tx, cells[from])
						if err != nil {
							return err
						}
						tv, err := engine.Get[int](tx, cells[to])
						if err != nil {
							return err
						}
						if err := tx.Write(cells[from], fv-1); err != nil {
							return err
						}
						return tx.Write(cells[to], tv+1)
					})
				case 1: // audit
					err = th.RunReadOnly(func(tx engine.Txn) error {
						sum := 0
						for _, c := range cells {
							v, err := engine.Get[int](tx, c)
							if err != nil {
								return err
							}
							sum += v
						}
						if sum != accounts*initial {
							violations.Add(1)
							return fmt.Errorf("audit: total %d, want %d", sum, accounts*initial)
						}
						return nil
					})
				case 2: // pair writer
					err = th.Run(func(tx engine.Txn) error {
						if err := tx.Write(pairA, n); err != nil {
							return err
						}
						return tx.Write(pairB, -n)
					})
				default: // pair checker
					err = th.Run(func(tx engine.Txn) error {
						av, err := engine.Get[int](tx, pairA)
						if err != nil {
							return err
						}
						bv, err := engine.Get[int](tx, pairB)
						if err != nil {
							return err
						}
						if av+bv != 0 {
							violations.Add(1)
							return fmt.Errorf("torn pair: %d/%d", av, bv)
						}
						return nil
					})
				}
				if err != nil {
					errs <- err
					return
				}
				txs.Add(1)
			}
		}(id)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	close(errs)
	if err, ok := <-errs; ok {
		return err
	}
	if v := violations.Load(); v > 0 {
		return fmt.Errorf("%d invariant violations", v)
	}
	s := eng.Stats()
	if u := s.UnclassifiedAborts(); u != 0 {
		return fmt.Errorf("%d of %d aborts unclassified (mix %s)", u, s.Aborts, s.AbortMix())
	}
	n := uint64(txs.Load())
	if _, durable := eng.(engine.Durable); s.Commits < n || !durable && s.Commits != n {
		return fmt.Errorf("engine counted %d commits, the workers finished %d transactions", s.Commits, n)
	}
	fmt.Printf("%-16s ok: %d txs in %v (%.0f tx/s), aborts/attempt=%.4f, helps=%d, extensions=%d\n",
		name, txs.Load(), d, float64(txs.Load())/d.Seconds(), s.AbortRate(), s.Helps, s.Extensions)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stmstress:", err)
	os.Exit(1)
}
