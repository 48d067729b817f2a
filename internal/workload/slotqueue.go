package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
)

// SlotQueue is a bounded transactional queue split into slot groups, each
// with its own head and tail cursor and its own ring of slots. With one
// group it is a strict FIFO ring whose every operation funnels through one
// head/tail cursor pair, two cells hotter than anything else in the
// transaction. With more, producers and consumers start probing from a
// per-worker rotating group hint, so concurrent operations mostly land on
// disjoint cursor pairs and cursor contention drops by about the group count.
//
// The contract is the usual one of relaxed concurrent queues: FIFO holds
// within each slot group, elements are conserved globally, but the global
// inter-group order is unspecified. Push reports false only when every
// group is full, Pop only when every group is empty — both checked inside
// one transaction, so the answer is a consistent snapshot.
type SlotQueue struct {
	// Groups is the number of independent cursor pairs (default 8).
	Groups int
	// SlotsPerGroup is each group's ring capacity (default 16).
	SlotsPerGroup int
	// Seed seeds the per-worker RNGs.
	Seed int64

	groups []slotGroup
}

// slotGroup is one independently cursored ring.
type slotGroup struct {
	head  engine.Cell // index of the next element to pop in this group
	tail  engine.Cell // index of the next free slot in this group
	slots []engine.Cell
}

// Name implements harness.Workload.
func (q *SlotQueue) Name() string {
	return fmt.Sprintf("slotqueue/%dx%d", q.numGroups(), q.slotsPerGroup())
}

func (q *SlotQueue) numGroups() int {
	if q.Groups == 0 {
		return 8
	}
	return q.Groups
}

func (q *SlotQueue) slotsPerGroup() int {
	if q.SlotsPerGroup == 0 {
		return 16
	}
	return q.SlotsPerGroup
}

// Init implements harness.Workload.
func (q *SlotQueue) Init(eng engine.Engine, workers int) error {
	if q.numGroups() < 1 {
		return fmt.Errorf("workload: SlotQueue.Groups must be ≥ 1, got %d", q.Groups)
	}
	if q.slotsPerGroup() < 1 {
		return fmt.Errorf("workload: SlotQueue.SlotsPerGroup must be ≥ 1, got %d", q.SlotsPerGroup)
	}
	q.groups = make([]slotGroup, q.numGroups())
	for i := range q.groups {
		g := &q.groups[i]
		g.head = eng.NewCell(0)
		g.tail = eng.NewCell(0)
		g.slots = make([]engine.Cell, q.slotsPerGroup())
		for s := range g.slots {
			g.slots[s] = eng.NewCell(0)
		}
	}
	return nil
}

// pushIn is Push's transactional body.
func (q *SlotQueue) pushIn(tx engine.Txn, v, hint int) (bool, error) {
	for i := 0; i < len(q.groups); i++ {
		g := &q.groups[(hint+i)%len(q.groups)]
		hv, err := engine.Get[int](tx, g.head)
		if err != nil {
			return false, err
		}
		tv, err := engine.Get[int](tx, g.tail)
		if err != nil {
			return false, err
		}
		if tv-hv >= len(g.slots) {
			continue
		}
		if err := engine.Set(tx, g.slots[tv%len(g.slots)], v); err != nil {
			return false, err
		}
		if err := engine.Set(tx, g.tail, tv+1); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// Push appends v to the first non-full group probed from hint; it reports
// false if every group was full.
func (q *SlotQueue) Push(th engine.Thread, v, hint int) (bool, error) {
	var ok bool
	err := th.Run(func(tx engine.Txn) error {
		var err error
		ok, err = q.pushIn(tx, v, hint)
		return err
	})
	return ok, err
}

// popIn is Pop's transactional body.
func (q *SlotQueue) popIn(tx engine.Txn, hint int) (int, bool, error) {
	for i := 0; i < len(q.groups); i++ {
		g := &q.groups[(hint+i)%len(q.groups)]
		hv, err := engine.Get[int](tx, g.head)
		if err != nil {
			return 0, false, err
		}
		tv, err := engine.Get[int](tx, g.tail)
		if err != nil {
			return 0, false, err
		}
		if hv == tv {
			continue
		}
		sv, err := engine.Get[int](tx, g.slots[hv%len(g.slots)])
		if err != nil {
			return 0, false, err
		}
		if err := engine.Set(tx, g.head, hv+1); err != nil {
			return 0, false, err
		}
		return sv, true, nil
	}
	return 0, false, nil
}

// Pop removes the oldest element of the first non-empty group probed from
// hint; it reports false if every group was empty.
func (q *SlotQueue) Pop(th engine.Thread, hint int) (int, bool, error) {
	var out int
	var ok bool
	err := th.Run(func(tx engine.Txn) error {
		var err error
		out, ok, err = q.popIn(tx, hint)
		return err
	})
	return out, ok, err
}

// Len returns the current total number of queued elements across all groups
// as one consistent snapshot.
func (q *SlotQueue) Len(th engine.Thread) (int, error) {
	var n int
	err := th.RunReadOnly(func(tx engine.Txn) error {
		n = 0
		for i := range q.groups {
			g := &q.groups[i]
			hv, err := engine.Get[int](tx, g.head)
			if err != nil {
				return err
			}
			tv, err := engine.Get[int](tx, g.tail)
			if err != nil {
				return err
			}
			n += tv - hv
		}
		return nil
	})
	return n, err
}

// Step implements harness.Workload: even workers produce, odd workers
// consume, each rotating its group hint so the load spreads over all cursor
// pairs instead of re-hammering one.
func (q *SlotQueue) Step(eng engine.Engine, th engine.Thread, id int) func() error {
	rng := rand.New(rand.NewSource(q.Seed + int64(id)*193 + 11))
	hint := id % q.numGroups()
	var v int
	push := func(tx engine.Txn) error {
		_, err := q.pushIn(tx, v, hint)
		return err
	}
	pop := func(tx engine.Txn) error {
		_, _, err := q.popIn(tx, hint)
		return err
	}
	return func() error {
		hint++
		if id%2 == 0 {
			v = rng.Int()
			return th.Run(push)
		}
		return th.Run(pop)
	}
}
