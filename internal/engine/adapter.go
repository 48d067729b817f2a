package engine

import (
	"repro/internal/abort"
	"repro/internal/val"
)

// The value-lane adapter: one generic Engine/Thread/Txn implementation for
// every backend whose native package already has the shape
//
//	Object                                      — the cell type O
//	Tx.Read/Write(*Object, any)                 — the boxed lane
//	Tx.ReadValue/WriteValue(*Object, val.Value) — the typed value lane
//	Thread.Run/RunReadOnly(func(*Tx) error)
//	Thread.Stats() *abort.Stats                 — the thread's counters
//
// which is all of norec, tl2, rstmval and glock. Their backend files are
// registrations only: name, summary, and a newValueEngine call.
//
// The LSA and wordstm adapters (lsa.go, word.go) stay outside it on purpose.
// They hide a different int lane — core's native ReadInt/WriteInt, wordstm's
// tagged immediate words and box side table — and "lsa/shared" is the hot
// path of the repo benchmark's mem_* workloads: folding them in would make
// this code branch on its caller.

// valueTx is the native transaction constraint: the boxed and the typed
// value lane over the backend's own cell type O.
type valueTx[O any] interface {
	Read(*O) (any, error)
	Write(*O, any) error
	ReadValue(*O) (val.Value, error)
	WriteValue(*O, val.Value) error
}

// valueThread is the native worker-context constraint over transaction
// pointer type T.
type valueThread[T any] interface {
	Run(func(T) error) error
	RunReadOnly(func(T) error) error
	Stats() *abort.Stats
}

// valueEngine adapts one native universe: newCell and thread are the native
// constructors.
type valueEngine[O any, T valueTx[O], TH valueThread[T]] struct {
	name    string
	newCell func(initial any) *O
	thread  func(id int) TH
	counterSet
}

// newValueEngine builds the adapter; O, T and TH are inferred from the two
// native constructors.
func newValueEngine[O any, T valueTx[O], TH valueThread[T]](
	name string, newCell func(any) *O, thread func(int) TH,
) Engine {
	return &valueEngine[O, T, TH]{name: name, newCell: newCell, thread: thread}
}

func (e *valueEngine[O, T, TH]) Name() string { return e.name }

func (e *valueEngine[O, T, TH]) NewCell(initial any) Cell { return e.newCell(initial) }

// Thread builds the worker context with its step closure and bound method
// values allocated once: per-transaction Run calls only swap the fn pointer,
// so the adapter layer adds zero allocations to the native engine's steady
// state.
func (e *valueEngine[O, T, TH]) Thread(id int) Thread {
	th := e.thread(id)
	t := &adapterThread[T]{
		id: id, stats: e.track(th.Stats()),
		run: th.Run, runRO: th.RunReadOnly,
	}
	t.step = func(tx T) error { return t.fn(valueTxn[O, T]{tx}) }
	return t
}

// adapterThread is the worker context behind valueEngine.Thread: it owns the
// per-thread step closure and the bound Run/RunReadOnly method values. T is
// the backend's concrete transaction pointer type; step lifts it to Txn.
//
// Run and RunReadOnly save and restore the fn slot so the adapter is exactly
// as reentrant as the engine it wraps — which, for every backend served by
// this type, is not at all: their native Threads recycle one transaction, so
// a nested Run on the same Thread corrupts the outer attempt's logs
// regardless of any adapter bookkeeping (see TestNestedRunSameThread for the
// engines that do support flat nesting). The save/restore only guarantees
// the adapter never turns that misuse into a nil-closure panic of its own.
type adapterThread[T any] struct {
	id    int
	stats *abort.Stats // the native thread's record
	fn    func(Txn) error
	step  func(T) error
	run   func(func(T) error) error
	runRO func(func(T) error) error
}

func (t *adapterThread[T]) ID() int { return t.id }

// Attempts implements AttemptCounter from the native thread's record.
func (t *adapterThread[T]) Attempts() uint64 { return t.stats.Attempts() }

func (t *adapterThread[T]) Run(fn func(Txn) error) error         { return t.do(t.run, fn) }
func (t *adapterThread[T]) RunReadOnly(fn func(Txn) error) error { return t.do(t.runRO, fn) }

func (t *adapterThread[T]) do(run func(func(T) error) error, fn func(Txn) error) error {
	prev := t.fn
	t.fn = fn
	err := run(t.step)
	t.fn = prev
	return err
}

// valueTxn lifts a native transaction to Txn (both lanes). It is a
// one-pointer struct, so converting it to the Txn interface stores the
// pointer directly and does not allocate; the int lane is the native value
// lane restricted to val.OfInt payloads.
type valueTxn[O any, T valueTx[O]] struct {
	tx T
}

func (t valueTxn[O, T]) Read(c Cell) (any, error)  { return t.tx.Read(cellOf[O](c)) }
func (t valueTxn[O, T]) Write(c Cell, v any) error { return t.tx.Write(cellOf[O](c), v) }

func (t valueTxn[O, T]) ReadInt(c Cell) (int64, bool, error) {
	v, err := t.tx.ReadValue(cellOf[O](c))
	if err != nil {
		return 0, false, err
	}
	n, ok := v.AsInt64()
	return n, ok, nil
}

func (t valueTxn[O, T]) WriteInt(c Cell, v int64) error {
	return t.tx.WriteValue(cellOf[O](c), val.OfInt(int(v)))
}

func (t valueTxn[O, T]) UpdateInt(c Cell, f func(int64) int64) (bool, error) {
	return updateIntVia(t, c, f)
}

// cellOf recovers the backend's cell type. A handle another backend created
// (cells are only valid with the engine that made them) fails the assertion,
// and the runtime's panic names both the received and the expected type.
func cellOf[O any](c Cell) *O { return c.(*O) }
