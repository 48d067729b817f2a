// Snapshot: long-running read-only analytics over a table that is being
// updated at full speed — the multi-version payoff of the lazy snapshot
// algorithm. Each analytics transaction reads every row; because declared
// read-only transactions may be served from older object versions, they
// commit on a consistent snapshot without aborting the writers or being
// aborted by them.
//
// For contrast, run with -versions 1: a single-version STM must abort and
// retry the scans whenever a row changes mid-scan (§4.3 discusses exactly
// this configuration), and the attempts-per-scan ratio jumps.
//
//	go run ./examples/snapshot
//	go run ./examples/snapshot -versions 1
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	tstm "repro"
)

func main() {
	// The default table is large enough that a full scan outlives a
	// scheduler timeslice even on a single-CPU host, so updates genuinely
	// interleave with the scan.
	rows := flag.Int("rows", 30000, "table size")
	writers := flag.Int("writers", 3, "updater goroutines")
	versions := flag.Int("versions", 8, "object history depth (1 = single-version STM)")
	duration := flag.Duration("duration", 2*time.Second, "run time")
	flag.Parse()

	rt, err := tstm.New("lsa/ideal", tstm.Options{Nodes: *writers + 2, MaxVersions: *versions})
	if err != nil {
		log.Fatal(err)
	}

	// The "table": each row holds (version, checksum) where checksum is a
	// function of version. A snapshot is consistent iff every row satisfies
	// the relation AND all rows show the same generation parity sum — a
	// detectable tear if the scan mixed generations of a single writer pass.
	type row struct{ gen, check int }
	table := make([]*tstm.Var[row], *rows)
	for i := range table {
		table[i] = tstm.NewVar(row{gen: 0, check: 7 * 0})
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writers sweep the table, bumping each row's generation.
	for w := 0; w < *writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.Thread(id)
			for i := 0; !stop.Load(); i++ {
				idx := (id*97 + i) % len(table)
				err := th.Atomic(func(tx *tstm.Tx) error {
					r, err := table[idx].Get(tx)
					if err != nil {
						return err
					}
					g := r.gen + 1
					return table[idx].Set(tx, row{gen: g, check: 7 * g})
				})
				if err != nil {
					log.Fatalf("writer %d: %v", id, err)
				}
			}
		}(w)
	}

	// Analyst scans the whole table read-only and verifies per-row
	// consistency of the snapshot it observed.
	var scans atomic.Int64
	analyst := rt.Thread(*writers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := analyst
		for !stop.Load() {
			err := th.AtomicReadOnly(func(tx *tstm.Tx) error {
				for _, v := range table {
					r, err := v.Get(tx)
					if err != nil {
						return err
					}
					if r.check != 7*r.gen {
						return fmt.Errorf("TORN ROW: gen=%d check=%d", r.gen, r.check)
					}
				}
				return nil
			})
			if err != nil {
				log.Fatalf("analyst: %v", err)
			}
			scans.Add(1)
		}
	}()

	time.Sleep(*duration)
	stop.Store(true)
	wg.Wait()

	s := rt.Stats()
	as := analyst.Stats()
	fmt.Printf("history depth          %d versions\n", *versions)
	fmt.Printf("full-table scans       %d (all consistent ✓)\n", scans.Load())
	if n := scans.Load(); n > 0 {
		// The analyst's own engine-level retries: every abort is a scan
		// attempt that met a row updated after the snapshot began and found
		// no old version to fall back to.
		fmt.Printf("scan attempts/scan     %.2f (snapshot aborts: %d)\n",
			float64(as.Commits+as.Aborts)/float64(n), as.AbortSnapshot)
	}
	fmt.Printf("engine: %s\n", s.String())
}
