package norec

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/abort"
	"repro/internal/val"
)

// The striped backend is the adaptive universe constructed by NewStriped
// with escalation unreachable; every case below runs the shared ATx code
// under that configuration.

func TestStripedRoundTrip(t *testing.T) {
	s := NewStriped()
	o := NewObject(41)
	th := s.Thread(0)
	if err := th.Run(func(tx *ATx) error {
		v, err := tx.Read(o)
		if err != nil {
			return err
		}
		return tx.Write(o, v.(int)+1)
	}); err != nil {
		t.Fatal(err)
	}
	var got any
	if err := th.RunReadOnly(func(tx *ATx) error {
		v, err := tx.Read(o)
		got = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("read back %v, want 42", got)
	}
}

func TestStripedReadOnlyRejectsWrites(t *testing.T) {
	s := NewStriped()
	o := NewObject(0)
	if err := s.Thread(0).RunReadOnly(func(tx *ATx) error {
		return tx.Write(o, 1)
	}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v, want ErrReadOnly", err)
	}
}

// TestStripedCrossStripeSnapshots hammers the establishment protocol: a
// writer commits {n, −n} into two cells that land in different stripes;
// readers touching the second stripe only after reading the first must
// never observe a sum other than zero — exactly the staleness a per-stripe
// snapshot without cross-stripe re-establishment would admit.
func TestStripedCrossStripeSnapshots(t *testing.T) {
	s := NewStriped()
	a, b := NewObject(0), NewObject(0)
	if s.sindex(a) == s.sindex(b) {
		t.Fatal("test objects landed in one stripe; round-robin sid broken")
	}
	var violations atomic.Int64
	var readers, writer sync.WaitGroup
	stop := make(chan struct{})
	writer.Add(1)
	go func() {
		defer writer.Done()
		th := s.Thread(0)
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := th.Run(func(tx *ATx) error {
				if err := tx.Write(a, n); err != nil {
					return err
				}
				return tx.Write(b, -n)
			}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(id int) {
			defer readers.Done()
			th := s.Thread(1 + id)
			for i := 0; i < 2000; i++ {
				var av, bv int
				run := th.Run
				if i%2 == 0 {
					run = th.RunReadOnly
				}
				if err := run(func(tx *ATx) error {
					v, err := tx.Read(a)
					if err != nil {
						return err
					}
					av = v.(int)
					w, err := tx.Read(b)
					if err != nil {
						return err
					}
					bv = w.(int)
					return nil
				}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if av+bv != 0 {
					violations.Add(1)
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if v := violations.Load(); v > 0 {
		t.Fatalf("%d torn cross-stripe snapshots", v)
	}
}

// TestStripedCommitValidationAborts drives one ATx by hand: a value its
// read logged changes under it before commit, so the commit must abort —
// and the write stripe's sequence lock must be restored to its exact
// pre-lock value (no writes were published).
func TestStripedCommitValidationAborts(t *testing.T) {
	s := NewStriped()
	o := NewObject(10)
	sink := NewObject(0)
	tx := &ATx{}
	tx.reset(s, false, false)
	if _, err := tx.Read(o); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(sink, 1); err != nil {
		t.Fatal(err)
	}
	// A foreign commit changes o after the read.
	if err := s.Thread(1).Run(func(tx *ATx) error { return tx.Write(o, 11) }); err != nil {
		t.Fatal(err)
	}
	before := s.stripes[s.sindex(sink)].seq.Load()
	if err := tx.commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("commit = %v, want ErrAborted", err)
	}
	after := s.stripes[s.sindex(sink)].seq.Load()
	if before != after {
		t.Errorf("aborted commit moved the write stripe: %d → %d", before, after)
	}
	var got any
	if err := s.Thread(2).RunReadOnly(func(tx *ATx) error {
		v, err := tx.Read(sink)
		got = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("aborted write became visible: sink = %v", got)
	}
}

// TestStripedSilentRestoreCommits: value-based validation must tolerate a
// value that changed and changed back between read and commit.
func TestStripedSilentRestoreCommits(t *testing.T) {
	s := NewStriped()
	o := NewObject(5)
	sink := NewObject(0)
	tx := &ATx{}
	tx.reset(s, false, false)
	if _, err := tx.Read(o); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(sink, 1); err != nil {
		t.Fatal(err)
	}
	th := s.Thread(1)
	if err := th.Run(func(tx *ATx) error { return tx.Write(o, 6) }); err != nil {
		t.Fatal(err)
	}
	if err := th.Run(func(tx *ATx) error { return tx.Write(o, 5) }); err != nil {
		t.Fatal(err)
	}
	if err := tx.commit(); err != nil {
		t.Fatalf("silently restored value must commit, got %v", err)
	}
}

// TestStripedDisjointCommitsDontShareStripes is the point of the variant:
// commits into different stripes bump different sequence locks.
func TestStripedDisjointCommitsDontShareStripes(t *testing.T) {
	s := NewStriped()
	a, b := NewObject(0), NewObject(0)
	sa, sb := s.sindex(a), s.sindex(b)
	if sa == sb {
		t.Fatal("round-robin sids put adjacent objects in one stripe")
	}
	th := s.Thread(0)
	if err := th.Run(func(tx *ATx) error { return tx.Write(a, 1) }); err != nil {
		t.Fatal(err)
	}
	if got := s.stripes[sb].seq.Load(); got != 0 {
		t.Errorf("commit into stripe %d moved stripe %d to %d", sa, sb, got)
	}
	if got := s.stripes[sa].seq.Load(); got != 2 {
		t.Errorf("stripe %d sequence = %d, want 2", sa, got)
	}
}

// TestStripedNeverEscalates fails if the fold into AdaptiveSTM ever leaks
// escalation into the striped backend: neither a scan as wide as the stripe
// table nor a transaction aborted more often than DefaultEscalateAborts may
// leave the striped protocol.
func TestStripedNeverEscalates(t *testing.T) {
	s := NewStriped()
	cells := make([]*Object, 2*stripeCount)
	for i := range cells {
		cells[i] = NewObject(i)
	}
	th, other := s.Thread(0), s.Thread(1)
	// Wide: read every stripe, then write, so the full-width commit runs too.
	if err := th.Run(func(tx *ATx) error {
		for _, c := range cells {
			if _, err := tx.Read(c); err != nil {
				return err
			}
		}
		if tx.touched != ^uint64(0) {
			t.Errorf("scan touched stripes %064b, want all %d", tx.touched, stripeCount)
		}
		if tx.escalated {
			t.Error("stripe-table-wide scan escalated on norec/striped")
		}
		return tx.Write(cells[0], -1)
	}); err != nil {
		t.Fatal(err)
	}
	// Aborting: a foreign commit invalidates the logged read on each of the
	// first forced attempts, so commit-time validation aborts them all.
	const forced = DefaultEscalateAborts + 3
	o := cells[1]
	attempts := 0
	if err := th.Run(func(tx *ATx) error {
		attempts++
		if tx.escalated {
			t.Errorf("attempt %d started escalated on norec/striped", attempts)
		}
		v, err := tx.Read(o)
		if err != nil {
			return err
		}
		if attempts <= forced {
			if err := other.Run(func(tx2 *ATx) error {
				return tx2.Write(o, 1000+attempts)
			}); err != nil {
				return err
			}
		}
		return tx.Write(o, v.(int)+1)
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != forced+1 {
		t.Fatalf("attempts = %d, want %d forced aborts + 1 commit", attempts, forced)
	}
	counts := th.AbortCounts()
	if got := counts[abort.Validation]; got != forced {
		t.Errorf("validation aborts = %d, want %d", got, forced)
	}
	if got := counts[abort.Escalation]; got != 0 {
		t.Errorf("escalation aborts = %d on norec/striped, want 0", got)
	}
	if n := s.EscalatedCommits(); n != 0 {
		t.Errorf("EscalatedCommits = %d on norec/striped, want 0", n)
	}
	if v := s.esc.Load(); v != 0 {
		t.Errorf("esc registration counter = %d, want 0", v)
	}
	if ws, wf := s.wstart.Load(), s.wfin.Load(); ws != 0 || wf != 0 {
		t.Errorf("striped commits touched the write window: wstart=%d wfin=%d", ws, wf)
	}
}

func TestStripedIntLaneWriteBackAllocs(t *testing.T) {
	s := NewStriped()
	o := NewObject(1 << 40)
	th := s.Thread(0)
	step := func() {
		if err := th.Run(func(tx *ATx) error {
			v, _, err := readLane(tx, o)
			if err != nil {
				return err
			}
			return tx.WriteValue(o, val.OfInt(int(v)+1))
		}); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if got := testing.AllocsPerRun(200, step); got > 0 {
		t.Errorf("striped int update: %.1f allocs/run, want 0", got)
	}
}

// readLane is a test helper: ReadValue through the numeric lane.
func readLane(tx *ATx, o *Object) (int64, bool, error) {
	v, err := tx.ReadValue(o)
	if err != nil {
		return 0, false, err
	}
	n, ok := v.AsInt64()
	return n, ok, nil
}
