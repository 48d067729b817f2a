// Quickstart: concurrent bank transfers on the tstm public API.
//
// Eight goroutines shuffle money between accounts while auditors verify,
// in read-only transactions, that the total never changes. Run it twice
// with different LSA engines to see the same program on a shared counter
// and on (simulated) synchronized hardware clocks:
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -engine lsa/mmtimer
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	tstm "repro"
)

func main() {
	name := flag.String("engine", "lsa/shared", "an lsa/* engine name (see lsabench -list-engines)")
	flag.Parse()

	rt, err := tstm.New(*name, tstm.Options{Nodes: 8})
	if err != nil {
		log.Fatal(err)
	}

	const accounts, initial = 16, 1000
	const workers, transfersEach = 8, 5000
	vars := make([]*tstm.Var[int], accounts)
	for i := range vars {
		vars[i] = tstm.NewVar(initial)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.Thread(id)
			for i := 0; i < transfersEach; i++ {
				from := (id*31 + i) % accounts
				to := (from + 1 + i%5) % accounts
				if from == to {
					continue
				}
				// One atomic transfer: both balances move or neither does.
				err := th.Atomic(func(tx *tstm.Tx) error {
					fb, err := vars[from].Get(tx)
					if err != nil {
						return err
					}
					tb, err := vars[to].Get(tx)
					if err != nil {
						return err
					}
					if err := vars[from].Set(tx, fb-1); err != nil {
						return err
					}
					return vars[to].Set(tx, tb+1)
				})
				if err != nil {
					log.Fatalf("worker %d: %v", id, err)
				}
				// Periodic read-only audit: a consistent snapshot of all
				// accounts, served from object history without blocking the
				// transfers.
				if i%500 == 0 {
					err := th.AtomicReadOnly(func(tx *tstm.Tx) error {
						sum := 0
						for _, v := range vars {
							b, err := v.Get(tx)
							if err != nil {
								return err
							}
							sum += b
						}
						if sum != accounts*initial {
							return fmt.Errorf("audit saw %d, want %d", sum, accounts*initial)
						}
						return nil
					})
					if err != nil {
						log.Fatalf("worker %d audit: %v", id, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	total := 0
	th := rt.Thread(workers)
	if err := th.AtomicReadOnly(func(tx *tstm.Tx) error {
		total = 0
		for _, v := range vars {
			b, err := v.Get(tx)
			if err != nil {
				return err
			}
			total += b
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	s := rt.Stats()
	fmt.Printf("time base        %s\n", rt.TimeBaseName())
	fmt.Printf("final total      %d (expected %d)\n", total, accounts*initial)
	fmt.Printf("commits          %d\n", s.Commits)
	fmt.Printf("aborts/attempt   %.4f\n", s.AbortRate())
	if total != accounts*initial {
		log.Fatal("INVARIANT VIOLATED")
	}
	fmt.Println("invariant held ✓")
}
