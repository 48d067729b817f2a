package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/timebase"
	"repro/internal/wordstm"
)

// The "wordstm" backend: the word-based LSA variant over the shared-counter
// time base. The native memory is flat int64 words, so the adapter maps
// each cell to one word and encodes values into it:
//
//   - small ints are stored immediately, tagged in the low bit (the common
//     case for the counter workloads — no indirection, no allocation); the
//     tagged lane doubles as the backend's IntTxn implementation;
//   - everything else is boxed into a side table and the word holds the box
//     index. The word remains the single transactional authority; a side
//     table slot is immutable while referenced, so reads stay consistent.
//
// Side-table reclamation: a box created by a transactional Write whose
// attempt aborts (or whose transaction fails with a user error) was never
// referenced by any committed word, so its slot is returned to a free list
// and reused by later encodes — long stress sessions with struct values no
// longer grow the table per retry. Boxes that become garbage because a
// committed word was later overwritten are still leaked (reclaiming those
// needs a transactional read-before-write or epoch scheme, which this
// adapter does not have): a workload that overwrites boxed values grows the
// table by one slot per such commit for the engine's lifetime.
//
// Cells consume words permanently (Options.Words sizes the memory), and the
// backend inherits the word engine's restriction to exact time bases.
func init() {
	Register("wordstm", Info{
		Summary: "word-based LSA over striped versioned locks and flat memory",
		Capabilities: Capabilities{
			Tunables: []string{"words"},
		},
	}, func(o Options) (Engine, error) {
		stm, err := wordstm.New(timebase.NewSharedCounter(), o.Words)
		if err != nil {
			return nil, err
		}
		return WrapWord("wordstm", stm), nil
	})
}

// WrapWord adapts a word STM built on any exact time base to the Engine
// interface under the given display name — the seam for experiments that
// run the word engine on a time base the registry does not pair it with.
func WrapWord(name string, stm *wordstm.STM) Engine {
	return &wordEngine{name: name, stm: stm}
}

type wordEngine struct {
	name string
	stm  *wordstm.STM
	next atomic.Int64 // next free word

	boxMu sync.RWMutex
	boxes []any
	free  []int64 // reusable side-table slots

	counterSet
}

// wordCell is a cell handle: the index of the cell's word.
type wordCell wordstm.Addr

func (e *wordEngine) Name() string { return e.name }

func (e *wordEngine) NewCell(initial any) Cell {
	a := e.next.Add(1) - 1
	if a >= int64(e.stm.Words()) {
		panic(fmt.Sprintf("engine: wordstm backend out of cells (%d words; raise Options.Words)", e.stm.Words()))
	}
	// The word is unpublished until a committed write makes the cell
	// reachable, so a direct store is safe even mid-run.
	w, _ := e.encode(initial)
	if err := e.stm.SetInitial(wordstm.Addr(a), w); err != nil {
		panic(fmt.Sprintf("engine: wordstm init: %v", err))
	}
	return wordCell(a)
}

// immediateMax bounds the ints stored directly in a word: the tag shift
// costs one bit, so 63 signed bits remain — every n with |n| < 2⁶² fits.
const immediateMax = 1 << 62

// encode returns the word for v and, when v was boxed, the side-table slot
// index (−1 for immediates). Boxed slots come from the free list when one
// is available.
func (e *wordEngine) encode(v any) (word, boxIdx int64) {
	if n, ok := v.(int); ok && n > -immediateMax && n < immediateMax {
		return int64(n)<<1 | 1, -1
	}
	e.boxMu.Lock()
	var idx int64
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
		e.boxes[idx] = v
	} else {
		e.boxes = append(e.boxes, v)
		idx = int64(len(e.boxes) - 1)
	}
	e.boxMu.Unlock()
	return idx << 1, idx
}

// freeBoxes returns side-table slots to the free list. Only call with slots
// that no committed word can reference (boxes encoded by attempts that
// never committed).
func (e *wordEngine) freeBoxes(idxs []int64) {
	if len(idxs) == 0 {
		return
	}
	e.boxMu.Lock()
	for _, idx := range idxs {
		e.boxes[idx] = nil
		e.free = append(e.free, idx)
	}
	e.boxMu.Unlock()
}

func (e *wordEngine) decode(w int64) any {
	if w&1 == 1 {
		return int(w >> 1)
	}
	e.boxMu.RLock()
	v := e.boxes[w>>1]
	e.boxMu.RUnlock()
	return v
}

// Thread builds the worker context with its retry closure allocated once.
// The current native Tx lives in the thread (not the Txn wrapper), so the
// wrapper stays a single pointer and converts to the Txn interface without
// allocating.
func (e *wordEngine) Thread(id int) Thread {
	t := &wordThread{id: id, eng: e, th: e.stm.Thread(id)}
	e.track(t.th.Stats())
	t.step = func(tx *wordstm.Tx) error {
		// A previous attempt of this transaction aborted: its boxes were
		// never published and can be reused.
		if len(t.pending) > 0 {
			t.eng.freeBoxes(t.pending)
			t.pending = t.pending[:0]
		}
		t.attemptBoxed = false
		t.cur = tx
		return t.fn(wordTxn{t})
	}
	return t
}

type wordThread struct {
	id   int
	eng  *wordEngine
	th   *wordstm.Thread
	fn   func(Txn) error
	step func(*wordstm.Tx) error
	cur  *wordstm.Tx
	// pending holds the side-table slots boxed by the current attempt; they
	// are freed when the attempt provably never committed.
	pending      []int64
	attemptBoxed bool
}

func (t *wordThread) ID() int { return t.id }

// Attempts implements AttemptCounter from the native thread's record.
func (t *wordThread) Attempts() uint64 { return t.th.Stats().Attempts() }

func (t *wordThread) Run(fn func(Txn) error) error         { return t.run(false, fn) }
func (t *wordThread) RunReadOnly(fn func(Txn) error) error { return t.run(true, fn) }

// run saves and restores the per-transaction slots, so a nested Run on the
// same Thread cannot leave the outer retry loop with a nil closure. (A
// nested transaction's box tracking starts fresh; the outer attempt's
// pending boxes are dropped untracked — they leak rather than dangle, the
// safe direction.)
func (t *wordThread) run(readOnly bool, fn func(Txn) error) error {
	prevFn, prevCur := t.fn, t.cur
	t.fn = fn
	t.pending = t.pending[:0]
	t.attemptBoxed = false
	var err error
	if readOnly {
		err = t.th.RunReadOnly(t.step)
	} else {
		err = t.th.Run(t.step)
	}
	if err == nil {
		if t.attemptBoxed {
			t.th.Stats().BoxedCommits++
		}
		t.pending = t.pending[:0] // committed: the boxes are live
	} else if len(t.pending) > 0 {
		// User error: the final attempt never committed either.
		t.eng.freeBoxes(t.pending)
		t.pending = t.pending[:0]
	}
	t.fn, t.cur = prevFn, prevCur
	return err
}

type wordTxn struct {
	th *wordThread
}

func (t wordTxn) Read(c Cell) (any, error) {
	w, err := t.th.cur.Load(wordstm.Addr(wordCellOf(c)))
	if err != nil {
		return nil, err
	}
	return t.th.eng.decode(w), nil
}

func (t wordTxn) Write(c Cell, v any) error {
	w, boxIdx := t.th.eng.encode(v)
	if boxIdx >= 0 {
		t.th.pending = append(t.th.pending, boxIdx)
		t.th.attemptBoxed = true
	}
	return t.th.cur.Store(wordstm.Addr(wordCellOf(c)), w)
}

func (t wordTxn) ReadInt(c Cell) (int64, bool, error) {
	w, err := t.th.cur.Load(wordstm.Addr(wordCellOf(c)))
	if err != nil {
		return 0, false, err
	}
	if w&1 == 1 {
		return w >> 1, true, nil
	}
	// Ints whose magnitude exceeds the 63-bit immediate range live in the
	// side table; the numeric lane still serves them, so Get[int] and
	// Get[int64] round-trip the full 64-bit range like every other backend.
	switch n := t.th.eng.decode(w).(type) {
	case int:
		return int64(n), true, nil
	case int64:
		return n, true, nil
	}
	return 0, false, nil
}

func (t wordTxn) WriteInt(c Cell, v int64) error {
	if n := int(v); n > -immediateMax && n < immediateMax {
		return t.th.cur.Store(wordstm.Addr(wordCellOf(c)), int64(n)<<1|1)
	}
	return t.Write(c, int(v)) // |v| ≥ 2⁶²: the word cannot hold it tagged
}

func wordCellOf(c Cell) wordCell {
	a, ok := c.(wordCell)
	if !ok {
		panic(fmt.Sprintf("engine: cell of type %T used with the wordstm backend", c))
	}
	return a
}
