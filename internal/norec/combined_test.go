package norec

import (
	"errors"
	"sync"
	"testing"
)

func TestCombinedRoundTrip(t *testing.T) {
	s := NewCombined()
	o := NewObject(41)
	th := s.Thread(0)
	if err := th.Run(func(tx *Tx) error {
		v, err := tx.Read(o)
		if err != nil {
			return err
		}
		return tx.Write(o, v.(int)+1)
	}); err != nil {
		t.Fatal(err)
	}
	var got any
	if err := th.RunReadOnly(func(tx *Tx) error {
		v, err := tx.Read(o)
		got = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("read back %v, want 42", got)
	}
	if batches, commits := s.BatchStats(); batches != 1 || commits != 1 {
		t.Errorf("BatchStats = %d batches / %d commits, want 1/1", batches, commits)
	}
}

func TestCombinedReadOnlyRejectsWrites(t *testing.T) {
	s := NewCombined()
	o := NewObject(0)
	if err := s.Thread(0).RunReadOnly(func(tx *Tx) error {
		return tx.Write(o, 1)
	}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v, want ErrReadOnly", err)
	}
}

// TestCombinedIntraBatchInvalidation drives one combining batch by hand:
// two requests read the same cell's old value and both write it. The
// combiner must apply the first (slot order) and abort the second — its
// logged read was invalidated by the first's write-back inside the very
// same batch — with a single +2 clock bump for the batch.
func TestCombinedIntraBatchInvalidation(t *testing.T) {
	stm := NewCombined()
	o := NewObject(0)
	t1, t2 := stm.Thread(0), stm.Thread(1)
	tx1, tx2 := &t1.tx, &t2.tx
	for _, tx := range []*Tx{tx1, tx2} {
		tx.reset(stm, false)
		if _, err := tx.Read(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx1.Write(o, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Write(o, 2); err != nil {
		t.Fatal(err)
	}
	// Publish both requests, then run one combining pass with the lock held.
	t1.slot.outcome.Store(slotPending)
	t1.slot.req.Store(tx1)
	t2.slot.outcome.Store(slotPending)
	t2.slot.req.Store(tx2)
	v := stm.seq.Load()
	if v&1 != 0 || !stm.seq.CompareAndSwap(v, v+1) {
		t.Fatalf("could not take the sequence lock at %d", v)
	}
	stm.combine(v)
	if out := t1.slot.outcome.Load(); out != slotCommitted {
		t.Errorf("first slot outcome = %d, want committed", out)
	}
	if out := t2.slot.outcome.Load(); out != slotAborted {
		t.Errorf("second slot outcome = %d, want aborted (read invalidated in batch)", out)
	}
	if got := stm.seq.Load(); got != v+2 {
		t.Errorf("sequence lock = %d after batch, want %d", got, v+2)
	}
	var got any
	if err := stm.Thread(2).RunReadOnly(func(tx *Tx) error {
		r, err := tx.Read(o)
		got = r
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("cell = %v after batch, want only the first request's write (1)", got)
	}
	if batches, commits := stm.BatchStats(); batches != 1 || commits != 1 {
		t.Errorf("BatchStats = %d/%d, want 1 batch with 1 commit", batches, commits)
	}
}

// TestCombinedAllAbortedBatchRestoresClock: a batch in which every request
// fails validation writes nothing, so the combiner must restore the
// sequence lock to its exact pre-acquisition value.
func TestCombinedAllAbortedBatchRestoresClock(t *testing.T) {
	stm := NewCombined()
	o := NewObject(0)
	t1 := stm.Thread(0)
	tx1 := &t1.tx
	tx1.reset(stm, false)
	if _, err := tx1.Read(o); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Write(o, 1); err != nil {
		t.Fatal(err)
	}
	// A foreign commit invalidates the logged read before the batch runs.
	if err := stm.Thread(1).Run(func(tx *Tx) error { return tx.Write(o, 7) }); err != nil {
		t.Fatal(err)
	}
	t1.slot.outcome.Store(slotPending)
	t1.slot.req.Store(tx1)
	v := stm.seq.Load()
	if v&1 != 0 || !stm.seq.CompareAndSwap(v, v+1) {
		t.Fatalf("could not take the sequence lock at %d", v)
	}
	stm.combine(v)
	if out := t1.slot.outcome.Load(); out != slotAborted {
		t.Errorf("outcome = %d, want aborted", out)
	}
	if got := stm.seq.Load(); got != v {
		t.Errorf("all-aborted batch moved the clock: %d → %d", v, got)
	}
}

// TestCombinedBatchInterleaving is the satellite stress test: K committers
// with overlapping read/write sets hammer one universe, so batches form
// with intra-batch conflicts (every transaction reads and writes the shared
// counter). No update may be lost — the counter must land exactly on the
// number of committed increments — and the batch telemetry must account for
// every update commit exactly once.
func TestCombinedBatchInterleaving(t *testing.T) {
	stm := NewCombined()
	const workers = 6
	const perWorker = 400
	counter := NewObject(0)
	side := [3]*Object{NewObject(0), NewObject(0), NewObject(0)}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := stm.Thread(id)
			for i := 0; i < perWorker; i++ {
				if err := th.Run(func(tx *Tx) error {
					// Overlap the read sets beyond the counter itself so a
					// batch member can be invalidated by a side-cell write.
					v, err := tx.Read(counter)
					if err != nil {
						return err
					}
					sv, err := tx.Read(side[i%len(side)])
					if err != nil {
						return err
					}
					if err := tx.Write(side[(i+id)%len(side)], sv.(int)+1); err != nil {
						return err
					}
					return tx.Write(counter, v.(int)+1)
				}); err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var got int
	if err := stm.Thread(workers).RunReadOnly(func(tx *Tx) error {
		v, err := tx.Read(counter)
		if err != nil {
			return err
		}
		got = v.(int)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := workers * perWorker; got != want {
		t.Errorf("counter = %d, want %d (lost updates)", got, want)
	}
	batches, commits := stm.BatchStats()
	if commits != uint64(workers*perWorker) {
		t.Errorf("batched commits = %d, want %d (every update commit exactly once)",
			commits, workers*perWorker)
	}
	if batches == 0 || batches > commits {
		t.Errorf("implausible batch count %d for %d commits", batches, commits)
	}
}
