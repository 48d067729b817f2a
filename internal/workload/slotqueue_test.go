package workload

import (
	"sync"
	"testing"
)

func TestSlotQueueValidation(t *testing.T) {
	q := &SlotQueue{Groups: -1}
	if err := q.Init(newEng(t), 1); err == nil {
		t.Error("negative group count must be rejected")
	}
	q = &SlotQueue{SlotsPerGroup: -1}
	if err := q.Init(newEng(t), 1); err == nil {
		t.Error("negative slot count must be rejected")
	}
}

// TestSlotQueuePerGroupFIFO: with one group, SlotQueue is a plain bounded
// FIFO — the per-group contract the relaxed global order is built from.
func TestSlotQueuePerGroupFIFO(t *testing.T) {
	eng := newEng(t)
	q := &SlotQueue{Groups: 1, SlotsPerGroup: 4}
	if err := q.Init(eng, 1); err != nil {
		t.Fatal(err)
	}
	th := eng.Thread(0)
	if _, ok, err := q.Pop(th, 0); err != nil || ok {
		t.Fatalf("pop on empty = (%v, %v), want miss", ok, err)
	}
	for i := 1; i <= 4; i++ {
		ok, err := q.Push(th, i*10, 0)
		if err != nil || !ok {
			t.Fatalf("push %d = (%v, %v)", i, ok, err)
		}
	}
	if ok, err := q.Push(th, 99, 0); err != nil || ok {
		t.Fatalf("push on full = (%v, %v), want reject", ok, err)
	}
	for i := 1; i <= 4; i++ {
		v, ok, err := q.Pop(th, 0)
		if err != nil || !ok {
			t.Fatalf("pop %d failed: (%v, %v)", i, ok, err)
		}
		if v != i*10 {
			t.Errorf("pop %d = %d, want %d (FIFO order within a group)", i, v, i*10)
		}
	}
	if n, err := q.Len(th); err != nil || n != 0 {
		t.Fatalf("len = (%d, %v), want 0", n, err)
	}
}

// TestSlotQueueWrapsAround: a one-group ring reuses its slots in FIFO order
// long after its cursors pass the capacity.
func TestSlotQueueWrapsAround(t *testing.T) {
	eng := newEng(t)
	q := &SlotQueue{Groups: 1, SlotsPerGroup: 3}
	if err := q.Init(eng, 1); err != nil {
		t.Fatal(err)
	}
	th := eng.Thread(0)
	for round := 0; round < 10; round++ {
		if ok, err := q.Push(th, round, round); err != nil || !ok {
			t.Fatalf("round %d push: (%v, %v)", round, ok, err)
		}
		v, ok, err := q.Pop(th, round)
		if err != nil || !ok || v != round {
			t.Fatalf("round %d pop = (%d, %v, %v)", round, v, ok, err)
		}
	}
}

// TestSlotQueueSpillsAcrossGroups: a full group must not reject the push
// while another group has space — the probe walks on.
func TestSlotQueueSpillsAcrossGroups(t *testing.T) {
	eng := newEng(t)
	q := &SlotQueue{Groups: 3, SlotsPerGroup: 2}
	if err := q.Init(eng, 1); err != nil {
		t.Fatal(err)
	}
	th := eng.Thread(0)
	for i := 0; i < 6; i++ {
		ok, err := q.Push(th, i, 0) // same hint every time: fills group 0 first
		if err != nil || !ok {
			t.Fatalf("push %d = (%v, %v), capacity is 6", i, ok, err)
		}
	}
	if ok, err := q.Push(th, 99, 1); err != nil || ok {
		t.Fatalf("push on globally full = (%v, %v), want reject from any hint", ok, err)
	}
	if n, err := q.Len(th); err != nil || n != 6 {
		t.Fatalf("len = (%d, %v), want 6", n, err)
	}
	popped := map[int]bool{}
	for i := 0; i < 6; i++ {
		v, ok, err := q.Pop(th, i) // rotating hints drain all groups
		if err != nil || !ok {
			t.Fatalf("pop %d = (%v, %v)", i, ok, err)
		}
		if popped[v] {
			t.Fatalf("element %d popped twice", v)
		}
		popped[v] = true
	}
	if _, ok, err := q.Pop(th, 2); err != nil || ok {
		t.Fatalf("pop on drained queue = (%v, %v), want miss", ok, err)
	}
}

func TestSlotQueueConcurrentConservation(t *testing.T) {
	eng := newClockEng(t)
	q := &SlotQueue{Groups: 4, SlotsPerGroup: 4, Seed: 9}
	const producers, consumers, per = 2, 2, 300
	if err := q.Init(eng, producers+consumers); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	pushed, popped := 0, 0
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := eng.Thread(id)
			n := 0
			for i := 0; i < per; i++ {
				ok, err := q.Push(th, id*1000+i, id+i)
				if err != nil {
					t.Errorf("push: %v", err)
					return
				}
				if ok {
					n++
				}
			}
			mu.Lock()
			pushed += n
			mu.Unlock()
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := eng.Thread(producers + id)
			n := 0
			for i := 0; i < per; i++ {
				_, ok, err := q.Pop(th, id+i)
				if err != nil {
					t.Errorf("pop: %v", err)
					return
				}
				if ok {
					n++
				}
			}
			mu.Lock()
			popped += n
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	remaining, err := q.Len(eng.Thread(99))
	if err != nil {
		t.Fatal(err)
	}
	if pushed != popped+remaining {
		t.Errorf("conservation broken: pushed %d, popped %d, remaining %d", pushed, popped, remaining)
	}
	if remaining < 0 || remaining > 16 {
		t.Errorf("remaining %d outside [0,16]", remaining)
	}
}

func TestSlotQueueAsHarnessWorkload(t *testing.T) {
	eng := newEng(t)
	q := &SlotQueue{Groups: 2, SlotsPerGroup: 4, Seed: 3}
	if err := q.Init(eng, 2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := eng.Thread(id)
			step := q.Step(eng, th, id)
			for i := 0; i < 200; i++ {
				if err := step(); err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if s := eng.Stats(); s.Commits == 0 {
		t.Error("no commits recorded")
	}
}

// The tests below pin the strict FIFO queue, SlotQueue{Groups: 1}: one
// head/tail cursor pair that every operation funnels through.

// TestQueueSequentialFIFO: with one group the hint has nothing to pick
// between, so the order is strict FIFO whatever hints the caller passes.
func TestQueueSequentialFIFO(t *testing.T) {
	eng := newEng(t)
	q := &SlotQueue{Groups: 1, SlotsPerGroup: 4}
	if err := q.Init(eng, 1); err != nil {
		t.Fatal(err)
	}
	th := eng.Thread(0)

	if _, ok, err := q.Pop(th, 3); err != nil || ok {
		t.Fatalf("pop on empty = (%v, %v), want miss", ok, err)
	}
	for i := 1; i <= 4; i++ {
		ok, err := q.Push(th, i*10, i*7)
		if err != nil || !ok {
			t.Fatalf("push %d = (%v, %v)", i, ok, err)
		}
	}
	if ok, err := q.Push(th, 99, 5); err != nil || ok {
		t.Fatalf("push on full = (%v, %v), want reject", ok, err)
	}
	for i := 1; i <= 4; i++ {
		v, ok, err := q.Pop(th, i*3)
		if err != nil || !ok {
			t.Fatalf("pop %d failed: (%v, %v)", i, ok, err)
		}
		if v != i*10 {
			t.Errorf("pop %d = %d, want %d (FIFO order)", i, v, i*10)
		}
	}
	if n, err := q.Len(th); err != nil || n != 0 {
		t.Fatalf("len = (%d, %v), want 0", n, err)
	}
}

func TestQueueConcurrentConservation(t *testing.T) {
	eng := newClockEng(t)
	q := &SlotQueue{Groups: 1, SlotsPerGroup: 16}
	const producers, consumers, per = 2, 2, 300
	if err := q.Init(eng, producers+consumers); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	pushed, popped := 0, 0
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := eng.Thread(id)
			n := 0
			for i := 0; i < per; i++ {
				ok, err := q.Push(th, id*1000+i, i)
				if err != nil {
					t.Errorf("push: %v", err)
					return
				}
				if ok {
					n++
				}
			}
			mu.Lock()
			pushed += n
			mu.Unlock()
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := eng.Thread(producers + id)
			n := 0
			for i := 0; i < per; i++ {
				_, ok, err := q.Pop(th, i)
				if err != nil {
					t.Errorf("pop: %v", err)
					return
				}
				if ok {
					n++
				}
			}
			mu.Lock()
			popped += n
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	remaining, err := q.Len(eng.Thread(99))
	if err != nil {
		t.Fatal(err)
	}
	if pushed != popped+remaining {
		t.Errorf("conservation broken: pushed %d, popped %d, remaining %d", pushed, popped, remaining)
	}
	if remaining < 0 || remaining > 16 {
		t.Errorf("remaining %d outside [0,16]", remaining)
	}
}

func TestQueueAsHarnessWorkload(t *testing.T) {
	eng := newEng(t)
	q := &SlotQueue{Groups: 1, SlotsPerGroup: 8}
	if err := q.Init(eng, 2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := eng.Thread(id)
			step := q.Step(eng, th, id)
			for i := 0; i < 200; i++ {
				if err := step(); err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
}
