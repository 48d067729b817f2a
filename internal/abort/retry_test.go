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
	var s Stats
	attempts := 0
	err := Retry(&s, errTestAborted, func() error {
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
	want := Stats{Commits: 1, Aborts: 5, AbortSnapshot: 2, AbortValidation: 1, AbortContention: 2}
	if s != want {
		t.Errorf("stats = %#v, want %#v", s, want)
	}
}

func TestRetryCountsUserError(t *testing.T) {
	userErr := errors.New("insufficient funds")
	var s Stats
	attempts := 0
	err := Retry(&s, errTestAborted, func() error {
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
	// The user error counts as one user abort, not as an abort.
	if want := (Stats{Aborts: 1, AbortContention: 1, UserAborts: 1}); s != want {
		t.Errorf("stats = %#v, want %#v", s, want)
	}
}

// TestAllocBudgetRetry pins the shared loop's cost: a Retry whose closure
// captures locals keeps the closure on the caller's stack, so retrying and
// counting add no allocation to any engine's fast path — whether the
// transaction commits at once, commits after an abort, or returns a user
// error.
func TestAllocBudgetRetry(t *testing.T) {
	snapshot := &Err{Sentinel: errTestAborted, Reason: Snapshot}
	userErr := errors.New("insufficient funds")
	for _, tc := range []struct {
		name   string
		aborts int
		final  error
		want   Stats
	}{
		{"commit", 0, nil, Stats{Commits: 1}},
		{"abort-then-commit", 1, nil, Stats{Commits: 1, Aborts: 1, AbortSnapshot: 1}},
		{"user-error", 0, userErr, Stats{UserAborts: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s Stats
			runs, n, sum := 0, 0, 0
			allocs := testing.AllocsPerRun(100, func() {
				runs++
				left := tc.aborts
				_ = Retry(&s, errTestAborted, func() error {
					n++
					sum += left + 1
					if left > 0 {
						left--
						return snapshot
					}
					return tc.final
				})
			})
			if allocs != 0 {
				t.Errorf("Retry allocates %.1f times per call, want 0", allocs)
			}
			if n == 0 || sum == 0 {
				t.Fatalf("closure did not run: n=%d sum=%d", n, sum)
			}
			// AllocsPerRun adds one warm-up run to the measured ones.
			want := tc.want
			for _, f := range []*uint64{&want.Commits, &want.Aborts, &want.AbortSnapshot, &want.UserAborts} {
				*f *= uint64(runs)
			}
			if s != want {
				t.Errorf("stats after %d runs = %#v, want %#v", runs, s, want)
			}
		})
	}
}
