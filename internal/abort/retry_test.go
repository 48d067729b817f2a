package abort

import (
	"errors"
	"testing"
)

var errTestAborted = errors.New("test: aborted")

func TestRetryCountsEachAbortByReason(t *testing.T) {
	// One abort per attempt, then success. The bare sentinel is an abort
	// from an untagged path and counts as Validation.
	aborts := []error{
		&Err{Sentinel: errTestAborted, Reason: Snapshot},
		&Err{Sentinel: errTestAborted, Reason: Contention},
		errTestAborted,
		&Err{Sentinel: errTestAborted, Reason: Snapshot},
		&Err{Sentinel: errTestAborted, Reason: Contention},
	}
	var c Counts
	attempts := 0
	err := Retry(&c, errTestAborted, func() error {
		attempts++
		if attempts <= len(aborts) {
			return aborts[attempts-1]
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry = %v, want nil", err)
	}
	if attempts != len(aborts)+1 {
		t.Errorf("attempts = %d, want %d", attempts, len(aborts)+1)
	}
	if want := (Counts{Snapshot: 2, Validation: 1, Contention: 2}); c != want {
		t.Errorf("counts = %v, want %v", c, want)
	}
}

func TestRetryPassesUserErrorUncounted(t *testing.T) {
	userErr := errors.New("insufficient funds")
	var c Counts
	attempts := 0
	err := Retry(&c, errTestAborted, func() error {
		attempts++
		if attempts == 1 {
			return &Err{Sentinel: errTestAborted, Reason: Contention}
		}
		return userErr
	})
	if err != userErr {
		t.Fatalf("Retry = %v, want the user error itself", err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	if want := (Counts{Contention: 1}); c != want {
		t.Errorf("counts = %v, want %v (the user error is not an abort)", c, want)
	}
}

// TestAllocBudgetRetry pins the shared loop's cost: a Retry whose closure
// captures locals keeps the closure on the caller's stack, so retrying adds
// no allocation to any engine's fast path.
func TestAllocBudgetRetry(t *testing.T) {
	snapshot := &Err{Sentinel: errTestAborted, Reason: Snapshot}
	var c Counts
	n, sum := 0, 0
	allocs := testing.AllocsPerRun(100, func() {
		left := 1
		_ = Retry(&c, errTestAborted, func() error {
			n++
			sum += left
			if left > 0 {
				left--
				return snapshot
			}
			return nil
		})
	})
	if allocs != 0 {
		t.Errorf("Retry allocates %.1f times per call, want 0", allocs)
	}
	if n == 0 || sum == 0 || c[Snapshot] == 0 {
		t.Fatalf("closure did not run: n=%d sum=%d counts=%v", n, sum, c)
	}
}
