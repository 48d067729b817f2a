package engine

import (
	"repro/internal/core"
	"repro/internal/hwclock"
	"repro/internal/timebase"
)

// The LSA backends: the multi-version object-based core under each of the
// paper's time bases. "lsa/shared" is the classic shared-counter LSA,
// "lsa/tl2ts" adds TL2's commit-timestamp sharing to the counter,
// "lsa/mmtimer" and "lsa/ideal" are perfectly synchronized hardware clocks
// (§3.1), and "lsa/extsync" is the externally synchronized clock with a
// bounded, masked deviation (§3.2).
// This is the one table that turns a time-base name into a time base; the
// public tstm package builds through it.
func init() {
	// lsaInfo is the capability profile every LSA-core backend shares; only
	// the summary and the time-base tunables differ per registration.
	lsaInfo := func(summary string, extraTunables ...string) Info {
		return Info{
			Summary: summary,
			Capabilities: Capabilities{
				MultiVersion: true,
				Tunables:     append(extraTunables, "max-versions"),
			},
		}
	}
	Register("lsa/shared", lsaInfo("multi-version LSA on the shared-counter time base"),
		func(o Options) (Engine, error) {
			return newLSA("lsa/shared", timebase.NewSharedCounter(), o)
		})
	Register("lsa/tl2ts", lsaInfo("multi-version LSA with TL2 commit-timestamp sharing"),
		func(o Options) (Engine, error) {
			return newLSA("lsa/tl2ts", timebase.NewTL2Counter(), o)
		})
	Register("lsa/mmtimer", lsaInfo("multi-version LSA on the simulated MMTimer hardware clock", "nodes"),
		func(o Options) (Engine, error) {
			return newLSA("lsa/mmtimer", timebase.NewMMTimer(o.Nodes), o)
		})
	Register("lsa/ideal", lsaInfo("multi-version LSA on an ideal perfectly synchronized clock", "nodes"),
		func(o Options) (Engine, error) {
			return newLSA("lsa/ideal", timebase.NewPerfectClock(hwclock.New(hwclock.IdealConfig(o.Nodes))), o)
		})
	Register("lsa/extsync", lsaInfo("multi-version LSA on the externally synchronized ±dev clock", "nodes", "deviation"),
		func(o Options) (Engine, error) {
			// One simulated 1 GHz per-node clock device (ticks are
			// nanoseconds) with the advertised deviation bound from Options.
			dev := hwclock.New(hwclock.Config{TickHz: 1_000_000_000, Nodes: o.Nodes, Seed: 1})
			tb, err := timebase.NewExtSyncClockFrom(dev, o.Deviation)
			if err != nil {
				return nil, err
			}
			return newLSA("lsa/extsync", tb, o)
		})
}

func newLSA(name string, tb timebase.TimeBase, o Options) (Engine, error) {
	rt, err := core.NewRuntime(core.Config{TimeBase: tb, MaxVersions: o.MaxVersions})
	if err != nil {
		return nil, err
	}
	return &lsaEngine{name: name, rt: rt}, nil
}

type lsaEngine struct {
	name string
	rt   *core.Runtime
}

func (e *lsaEngine) Name() string { return e.name }

// Unwrap exposes the underlying core runtime for tools inside this module.
func (e *lsaEngine) Unwrap() *core.Runtime { return e.rt }

func (e *lsaEngine) NewCell(initial any) Cell { return core.NewObject(initial) }

func (e *lsaEngine) Thread(id int) Thread { return newLSAThread(e.rt.Thread(id)) }

func (e *lsaEngine) Stats() Stats { return e.rt.Stats() }

// lsaThread caches its retry closure: per-transaction Run calls only swap
// the fn pointer, so the adapter layer adds zero allocations on top of the
// core's own (a record and a version chunk per update attempt, nothing per
// declared read-only one).
type lsaThread struct {
	th   *core.Thread
	fn   func(Txn) error
	step func(*core.Tx) error
}

func newLSAThread(th *core.Thread) *lsaThread {
	t := &lsaThread{th: th}
	t.step = func(tx *core.Tx) error { return t.fn(lsaTxn{tx}) }
	return t
}

func (t *lsaThread) ID() int { return t.th.ID() }

// Attempts implements AttemptCounter from the core thread's record.
func (t *lsaThread) Attempts() uint64 { return t.th.Stats().Attempts() }

// Run saves and restores the fn slot, so a nested transaction on the same
// Thread (the core runs it as a flat, independent transaction) leaves the
// outer retry loop's closure intact.
func (t *lsaThread) Run(fn func(Txn) error) error {
	prev := t.fn
	t.fn = fn
	err := t.th.Run(t.step)
	t.fn = prev
	return err
}

func (t *lsaThread) RunReadOnly(fn func(Txn) error) error {
	prev := t.fn
	t.fn = fn
	err := t.th.RunReadOnly(t.step)
	t.fn = prev
	return err
}

type lsaTxn struct {
	tx *core.Tx
}

func (t lsaTxn) Read(c Cell) (any, error)  { return t.tx.Read(lsaCell(c)) }
func (t lsaTxn) Write(c Cell, v any) error { return t.tx.Write(lsaCell(c), v) }

func (t lsaTxn) ReadInt(c Cell) (int64, bool, error) { return t.tx.ReadInt(lsaCell(c)) }
func (t lsaTxn) WriteInt(c Cell, v int64) error      { return t.tx.WriteInt(lsaCell(c), v) }

func (t lsaTxn) UpdateInt(c Cell, f func(int64) int64) (bool, error) {
	return updateIntVia(t, c, f)
}

// lsaCell recovers the core's cell type; like cellOf, a foreign handle fails
// the assertion with a runtime panic naming both types.
func lsaCell(c Cell) *core.Object { return c.(*core.Object) }
