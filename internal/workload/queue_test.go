package workload

import (
	"sync"
	"testing"
)

func TestQueueSequentialFIFO(t *testing.T) {
	eng := newEng(t)
	q := &Queue{Capacity: 4}
	if err := q.Init(eng, 1); err != nil {
		t.Fatal(err)
	}
	th := eng.Thread(0)

	if _, ok, err := q.Pop(th); err != nil || ok {
		t.Fatalf("pop on empty = (%v, %v), want miss", ok, err)
	}
	for i := 1; i <= 4; i++ {
		ok, err := q.Push(th, i*10)
		if err != nil || !ok {
			t.Fatalf("push %d = (%v, %v)", i, ok, err)
		}
	}
	if ok, err := q.Push(th, 99); err != nil || ok {
		t.Fatalf("push on full = (%v, %v), want reject", ok, err)
	}
	for i := 1; i <= 4; i++ {
		v, ok, err := q.Pop(th)
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

func TestQueueWrapsAround(t *testing.T) {
	eng := newEng(t)
	q := &Queue{Capacity: 3}
	if err := q.Init(eng, 1); err != nil {
		t.Fatal(err)
	}
	th := eng.Thread(0)
	for round := 0; round < 10; round++ {
		if ok, err := q.Push(th, round); err != nil || !ok {
			t.Fatalf("round %d push: (%v, %v)", round, ok, err)
		}
		v, ok, err := q.Pop(th)
		if err != nil || !ok || v != round {
			t.Fatalf("round %d pop = (%d, %v, %v)", round, v, ok, err)
		}
	}
}

func TestQueueConcurrentConservation(t *testing.T) {
	eng := newClockEng(t)
	q := &Queue{Capacity: 16}
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
				ok, err := q.Push(th, id*1000+i)
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
				_, ok, err := q.Pop(th)
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
	q := &Queue{Capacity: 8}
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
