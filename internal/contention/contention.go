// Package contention provides contention managers for the LSA-RT engine.
// Upon a write-write conflict, the engine delegates to a configurable
// manager that decides which transaction proceeds (§2.3, following DSTM).
// The managers here are the classic policies from the DSTM/SXM literature,
// adapted to the engine's Resolve(us, enemy, attempt) calling convention.
package contention

import (
	"fmt"

	"repro/internal/core"
)

// ByName returns the manager with the given lower-case name: "aggressive",
// "suicide", "polite", "karma" or "timestamp". Callers prefix the error
// with their own package.
func ByName(name string) (core.ContentionManager, error) {
	switch name {
	case "aggressive":
		return Aggressive{}, nil
	case "suicide":
		return Suicide{}, nil
	case "polite":
		return Polite{}, nil
	case "karma":
		return Karma{}, nil
	case "timestamp":
		return Timestamp{}, nil
	}
	return nil, fmt.Errorf("unknown contention manager %q", name)
}

// Aggressive always aborts the enemy. Maximum progress for the acquirer,
// but it can livelock two writers ping-ponging an object under extreme
// contention (the engine's retry backoff breaks the symmetry in practice).
type Aggressive struct{}

// Name implements core.ContentionManager.
func (Aggressive) Name() string { return "Aggressive" }

// Resolve implements core.ContentionManager.
func (Aggressive) Resolve(us, enemy core.TxInfo, n int) core.Decision {
	return core.AbortEnemy
}

// Suicide always aborts the acquirer. Simple and obstruction-free for the
// enemy; the acquirer relies on its retry loop.
type Suicide struct{}

// Name implements core.ContentionManager.
func (Suicide) Name() string { return "Suicide" }

// Resolve implements core.ContentionManager.
func (Suicide) Resolve(us, enemy core.TxInfo, n int) core.Decision {
	return core.AbortSelf
}

// Polite waits politely for a bounded number of (exponentially backed-off)
// rounds, then aborts the enemy. This is the DSTM "Polite" manager; the
// engine performs the actual backoff between Resolve calls.
type Polite struct {
	// Rounds is how many times to wait before turning aggressive.
	// Zero means the default of 8.
	Rounds int
}

// Name implements core.ContentionManager.
func (p Polite) Name() string { return "Polite" }

// Resolve implements core.ContentionManager.
func (p Polite) Resolve(us, enemy core.TxInfo, n int) core.Decision {
	rounds := p.Rounds
	if rounds == 0 {
		rounds = 8
	}
	if n < rounds {
		return core.Wait
	}
	return core.AbortEnemy
}

// Karma compares invested work (objects opened, accumulated across
// retries): the transaction with less karma yields. Ties go to the
// acquirer after a patience proportional to the deficit.
type Karma struct{}

// Name implements core.ContentionManager.
func (Karma) Name() string { return "Karma" }

// Resolve implements core.ContentionManager.
func (Karma) Resolve(us, enemy core.TxInfo, n int) core.Decision {
	our := us.Ops() + us.Attempt()
	their := enemy.Ops() + enemy.Attempt()
	if our > their {
		return core.AbortEnemy
	}
	// Poorer transaction: wait, gaining patience each round; abort the
	// enemy once attempts have overcome the karma deficit.
	if n > their-our {
		return core.AbortEnemy
	}
	return core.Wait
}

// Timestamp implements "oldest wins": the transaction that started earlier
// (by snapshot start time) may abort the younger one; the younger waits
// briefly and then kills itself. This is the Greedy manager's priority rule
// and gives strong progress guarantees under contention.
type Timestamp struct{}

// Name implements core.ContentionManager.
func (Timestamp) Name() string { return "Timestamp" }

// Resolve implements core.ContentionManager.
func (Timestamp) Resolve(us, enemy core.TxInfo, n int) core.Decision {
	if enemy.Start().PossiblyLater(us.Start()) {
		// We are (possibly) older: the enemy yields.
		return core.AbortEnemy
	}
	if n < 4 {
		return core.Wait
	}
	return core.AbortSelf
}
