package tstm_test

import (
	"fmt"

	tstm "repro"
)

// The basic pattern: a runtime, one thread per goroutine, typed variables,
// atomic blocks.
func Example() {
	rt := tstm.MustNew("lsa/shared", tstm.Options{})
	balance := tstm.NewVar(100)

	th := rt.Thread(0)
	err := th.Atomic(func(tx *tstm.Tx) error {
		b, err := balance.Get(tx)
		if err != nil {
			return err
		}
		return balance.Set(tx, b+42)
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	_ = th.AtomicReadOnly(func(tx *tstm.Tx) error {
		b, err := balance.Get(tx)
		if err != nil {
			return err
		}
		fmt.Println("balance:", b)
		return nil
	})
	// Output: balance: 142
}

// Update is the read-modify-write shorthand.
func ExampleVar_Update() {
	rt := tstm.MustNew("", tstm.Options{})
	counter := tstm.NewVar(0)
	th := rt.Thread(0)
	for i := 0; i < 3; i++ {
		_ = th.Atomic(func(tx *tstm.Tx) error {
			return counter.Update(tx, func(n int) int { return n + 10 })
		})
	}
	_ = th.AtomicReadOnly(func(tx *tstm.Tx) error {
		n, err := counter.Get(tx)
		fmt.Println("counter:", n)
		return err
	})
	// Output: counter: 30
}

// Multi-variable transactions are atomic: both sides of the swap move
// together or not at all.
func ExampleThread_Atomic() {
	rt := tstm.MustNew("lsa/mmtimer", tstm.Options{Nodes: 2})
	left, right := tstm.NewVar("L"), tstm.NewVar("R")
	th := rt.Thread(0)
	_ = th.Atomic(func(tx *tstm.Tx) error {
		l, err := left.Get(tx)
		if err != nil {
			return err
		}
		r, err := right.Get(tx)
		if err != nil {
			return err
		}
		if err := left.Set(tx, r); err != nil {
			return err
		}
		return right.Set(tx, l)
	})
	_ = th.AtomicReadOnly(func(tx *tstm.Tx) error {
		l, err := left.Get(tx)
		if err != nil {
			return err
		}
		r, err := right.Get(tx)
		if err != nil {
			return err
		}
		fmt.Println(l, r)
		return nil
	})
	// Output: R L
}
