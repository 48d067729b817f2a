package abort

import (
	"errors"
	"fmt"
	"testing"
)

func TestErrIsSentinel(t *testing.T) {
	sentinel := errors.New("stm: aborted")
	tagged := &Err{Sentinel: sentinel, Reason: Contention, Msg: "stm: aborted: lock held"}
	if !errors.Is(tagged, sentinel) {
		t.Error("tagged abort must satisfy errors.Is against its sentinel")
	}
	if errors.Is(tagged, errors.New("other")) {
		t.Error("tagged abort must not match unrelated errors")
	}
	if tagged.Error() != "stm: aborted: lock held" {
		t.Errorf("Error() = %q", tagged.Error())
	}
	// Wrapping a tagged abort (fmt %w) must still match the sentinel.
	wrapped := fmt.Errorf("worker 3: %w", tagged)
	if !errors.Is(wrapped, sentinel) {
		t.Error("wrapped tagged abort must still match the sentinel")
	}
}

func TestObserve(t *testing.T) {
	sentinel := errors.New("aborted")
	var s Stats
	s.Observe(&Err{Sentinel: sentinel, Reason: Snapshot})
	s.Observe(&Err{Sentinel: sentinel, Reason: Snapshot})
	if r := s.Observe(&Err{Sentinel: sentinel, Reason: Contention}); r != Contention {
		t.Errorf("Observe(tagged contention) returned %v", r)
	}
	if r := s.Observe(sentinel); r != Validation { // untagged → Validation
		t.Errorf("Observe(bare sentinel) returned %v, want validation", r)
	}
	want := Stats{Aborts: 4, AbortSnapshot: 2, AbortValidation: 1, AbortContention: 1}
	if s != want {
		t.Errorf("stats = %#v, want %#v", s, want)
	}
	if u := s.UnclassifiedAborts(); u != 0 {
		t.Errorf("unclassified = %d, want 0", u)
	}
	var d Stats
	d.Observe(sentinel)
	d.Commits = 3
	d.Add(&s)
	if want := (Stats{Commits: 3, Aborts: 5, AbortSnapshot: 2, AbortValidation: 2, AbortContention: 1}); d != want {
		t.Errorf("after Add: %#v, want %#v", d, want)
	}
	if d.Attempts() != 8 {
		t.Errorf("attempts = %d, want 8", d.Attempts())
	}
}

func TestReasonString(t *testing.T) {
	names := map[Reason]string{
		Snapshot: "snapshot", Validation: "validation",
		Contention: "contention", Contention + 1: "unknown",
	}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("Reason(%d).String() = %q, want %q", r, r.String(), want)
		}
	}
}
