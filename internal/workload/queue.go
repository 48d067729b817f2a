package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
)

// Queue is a transactional bounded FIFO ring buffer: producers and
// consumers contend on the head/tail cursors while the slots themselves are
// mostly disjoint — a classic mixed-contention STM workload (two hot
// objects, many cold ones).
type Queue struct {
	// Capacity is the ring size (default 64).
	Capacity int
	// Seed seeds the per-worker RNGs.
	Seed int64

	head  engine.Cell // index of the next element to pop
	tail  engine.Cell // index of the next free slot
	slots []engine.Cell
}

// Name implements harness.Workload.
func (q *Queue) Name() string { return fmt.Sprintf("queue/%d", q.capacity()) }

func (q *Queue) capacity() int {
	if q.Capacity == 0 {
		return 64
	}
	return q.Capacity
}

// Init implements harness.Workload.
func (q *Queue) Init(eng engine.Engine, workers int) error {
	if q.capacity() < 1 {
		return fmt.Errorf("workload: Queue.Capacity must be ≥ 1, got %d", q.Capacity)
	}
	q.head = eng.NewCell(0)
	q.tail = eng.NewCell(0)
	q.slots = make([]engine.Cell, q.capacity())
	for i := range q.slots {
		q.slots[i] = eng.NewCell(0)
	}
	return nil
}

// pushIn is Push's transactional body.
func (q *Queue) pushIn(tx engine.Txn, v int) (bool, error) {
	hv, err := engine.Get[int](tx, q.head)
	if err != nil {
		return false, err
	}
	tv, err := engine.Get[int](tx, q.tail)
	if err != nil {
		return false, err
	}
	if tv-hv >= q.capacity() {
		return false, nil
	}
	if err := engine.Set(tx, q.slots[tv%q.capacity()], v); err != nil {
		return false, err
	}
	if err := engine.Set(tx, q.tail, tv+1); err != nil {
		return false, err
	}
	return true, nil
}

// Push appends v; it reports false if the queue was full.
func (q *Queue) Push(th engine.Thread, v int) (bool, error) {
	var ok bool
	err := th.Run(func(tx engine.Txn) error {
		var err error
		ok, err = q.pushIn(tx, v)
		return err
	})
	return ok, err
}

// popIn is Pop's transactional body.
func (q *Queue) popIn(tx engine.Txn) (int, bool, error) {
	hv, err := engine.Get[int](tx, q.head)
	if err != nil {
		return 0, false, err
	}
	tv, err := engine.Get[int](tx, q.tail)
	if err != nil {
		return 0, false, err
	}
	if hv == tv {
		return 0, false, nil
	}
	sv, err := engine.Get[int](tx, q.slots[hv%q.capacity()])
	if err != nil {
		return 0, false, err
	}
	if err := engine.Set(tx, q.head, hv+1); err != nil {
		return 0, false, err
	}
	return sv, true, nil
}

// Pop removes the oldest element; it reports false if the queue was empty.
func (q *Queue) Pop(th engine.Thread) (int, bool, error) {
	var out int
	var ok bool
	err := th.Run(func(tx engine.Txn) error {
		var err error
		out, ok, err = q.popIn(tx)
		return err
	})
	return out, ok, err
}

// Len returns the current number of queued elements.
func (q *Queue) Len(th engine.Thread) (int, error) {
	var n int
	err := th.RunReadOnly(func(tx engine.Txn) error {
		hv, err := engine.Get[int](tx, q.head)
		if err != nil {
			return err
		}
		tv, err := engine.Get[int](tx, q.tail)
		if err != nil {
			return err
		}
		n = tv - hv
		return nil
	})
	return n, err
}

// Step implements harness.Workload: even workers produce, odd workers
// consume. The transaction closures are built once per worker.
func (q *Queue) Step(eng engine.Engine, th engine.Thread, id int) func() error {
	rng := rand.New(rand.NewSource(q.Seed + int64(id)*131 + 7))
	var v int
	push := func(tx engine.Txn) error {
		_, err := q.pushIn(tx, v)
		return err
	}
	pop := func(tx engine.Txn) error {
		_, _, err := q.popIn(tx)
		return err
	}
	return func() error {
		if id%2 == 0 {
			v = rng.Int()
			return th.Run(push)
		}
		return th.Run(pop)
	}
}
