package abort

import (
	"errors"
	"runtime"
	"time"
)

// Retry runs attempt, which resets its own transaction, until it returns nil
// or an error that is not an abort (errors.Is against sentinel fails), and
// returns that. It counts every outcome in s: a commit, a user abort, and
// each abort by reason, followed by Pause.
func Retry(s *Stats, sentinel error, attempt func() error) error {
	for n := 0; ; n++ {
		err := attempt()
		switch {
		case err == nil:
			s.Commits++
			return nil
		case !errors.Is(err, sentinel):
			s.UserAborts++
			return err
		}
		Pause(n, s.Observe(err))
	}
}

// Pause waits after the n-th (from 0) consecutive abort for reason r. A
// Contention abort yields at once, so a preempted lock holder can run; any
// reason yields from the third abort; from the fifth it sleeps 1 µs,
// doubling to a 256 µs cap. wordstm's bounded lock spins step by it too.
func Pause(n int, r Reason) {
	switch {
	case n < 2 && r != Contention: // retry at once
	case n < 4:
		runtime.Gosched()
	default:
		time.Sleep(time.Microsecond << min(n-4, 8))
	}
}
