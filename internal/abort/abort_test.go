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
	var c Counts
	c.Observe(&Err{Sentinel: sentinel, Reason: Snapshot})
	c.Observe(&Err{Sentinel: sentinel, Reason: Snapshot})
	if r := c.Observe(&Err{Sentinel: sentinel, Reason: Contention}); r != Contention {
		t.Errorf("Observe(tagged contention) returned %v", r)
	}
	if r := c.Observe(sentinel); r != Validation { // untagged → Validation
		t.Errorf("Observe(bare sentinel) returned %v, want validation", r)
	}
	want := Counts{Snapshot: 2, Validation: 1, Contention: 1}
	if c != want {
		t.Errorf("counts = %v, want %v", c, want)
	}
	if c.Total() != 4 {
		t.Errorf("total = %d, want 4", c.Total())
	}
	var d Counts
	d.Observe(sentinel)
	d.Add(c)
	if d.Total() != 5 || d[Validation] != 2 {
		t.Errorf("after Add: %v", d)
	}
}

func TestReasonString(t *testing.T) {
	names := map[Reason]string{
		Snapshot: "snapshot", Validation: "validation",
		Contention: "contention", NumReasons: "unknown",
	}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("Reason(%d).String() = %q, want %q", r, r.String(), want)
		}
	}
}
