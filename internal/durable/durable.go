// Package durable wraps any registered STM engine into a recoverable store:
// a write-ahead log of redo records plus a compacting snapshot, replayed at
// construction, turn a crash back into the last acknowledged state.
//
// # Design
//
// The wrapper is engine-agnostic — it never sees a backend's internals, only
// the Engine/Thread/Txn surface — so the commit order it journals must come
// from the inner engine itself. It does this with a ticket cell: a hidden
// transactional cell holding the last assigned commit sequence number. The
// first write of every transaction read-increments the ticket inside the
// same transaction, so the inner engine's own serializability totally orders
// tickets consistently with every data write; an aborted attempt discards
// its ticket write, so sequence numbers stay dense. After the inner commit
// returns, the thread hands its redo record to the log's sequencer, which
// admits appends strictly in ticket order — the on-disk log is therefore
// always a seq-dense prefix of the commit order, and recovery treats a gap
// as corruption. The ticket makes every pair of update transactions
// conflict; that contention is the engine-agnostic durability tax, and
// read-only transactions never pay it.
//
// Recovery runs inside Wrap, before the application creates any cell: the
// snapshot (if present) and every segment above its watermark are folded
// into a cellID → value map, a torn final record is truncated (never
// refused), and NewCell substitutes the recovered value for the caller's
// initial. The contract is that the application creates its cells in a
// deterministic order across restarts — cmd/stmserve creates its whole
// keyspace at boot, in key order, before serving.
//
// Redo records carry typed val.Value payloads, so only WAL-serializable
// values may be written through a durable engine: the numeric lane plus
// boxed nil, bool, string, float64, []byte and []int. Writes of anything
// else fail at Write time with ErrUnsupportedPayload, before a commit can
// happen. That includes cell-graph payloads (the linked-list and skip-list
// workloads' nodes hold engine.Cell handles, process-local pointers that
// replay could not rebind).
package durable

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/val"
)

// ErrStandby reports an update transaction refused because the engine is a
// replication standby: a follower applies the primary's redo stream and
// nothing else, so local updates are rejected until Promote ends standby.
// Read-only transactions are always served.
var ErrStandby = errors.New("durable: standby replica refuses update transactions")

// defaultSnapshotBytes triggers compaction after 8 MiB of appended redo
// records.
const defaultSnapshotBytes = 8 << 20

// snapThreadID is the inner-engine worker id of the snapshot capture
// thread, far above any real worker's dense 0..N−1 ids. applyThreadID is
// the replication-apply thread's id, equally far out of the dense range.
const (
	snapThreadID  = 1 << 16
	applyThreadID = 1<<16 + 1
)

// Options parameterize Wrap. The zero value is usable: a temp WAL
// directory, group-commit fsync, 8 MiB compaction threshold.
type Options struct {
	// Dir is the WAL directory. Empty creates a fresh temp directory —
	// durability within the process run only (benches, conformance); real
	// recovery needs a path that survives restarts.
	Dir string
	// Fsync is FsyncAlways, FsyncGroup or FsyncNever ("" = group).
	Fsync string
	// SnapshotBytes of appended redo records trigger a background snapshot
	// compaction. 0 selects the 8 MiB default; negative disables
	// compaction.
	SnapshotBytes int64
	// segmentBytes rotates log segments (0 = 4 MiB default); tests shrink
	// it to force rotation. It is also the disk space the open segment
	// holds: each new segment is preallocated to it, and cut back to its
	// data when it is sealed or the log closes.
	segmentBytes int64
}

// Engine wraps an inner engine with the WAL. It implements engine.Engine
// and engine.Durable.
type Engine struct {
	inner engine.Engine
	name  string
	log   *Log
	opt   Options
	info  engine.DurabilityInfo
	// tempDir records that Wrap made the WAL directory (Options.Dir was
	// empty), so WALClose removes it.
	tempDir bool

	mu        sync.Mutex
	cells     []engine.Cell
	recovered cellTable // never mutated after Wrap

	seqCell engine.Cell // the ticket cell, on the inner engine

	bytesSince atomic.Int64
	compacting atomic.Bool
	compactWG  sync.WaitGroup
	snapMu     sync.Mutex // snapThread is an engine Thread: single-goroutine
	snapOnce   sync.Once
	snapThread engine.Thread

	// Replication state. standby refuses local update transactions (the
	// follower role); gate, when set, is consulted after every journaled
	// commit (the primary's sync-replication ack gate); the apply thread
	// replays the primary's redo records on a follower.
	standby     atomic.Bool
	gate        atomic.Pointer[func(seq uint64) error]
	applyMu     sync.Mutex // applyThread is single-goroutine too
	applyOnce   sync.Once
	applyThread engine.Thread
	// The record being applied, under applyMu: its seq, entries and cells,
	// reused across commits, and applyBody, the apply transaction over them,
	// built by Wrap so an apply allocates no closure.
	applySeq     uint64
	applyEntries []entry
	applyCells   []engine.Cell
	applyBody    func(engine.Txn) error
}

// Wrap recovers the WAL directory's state and returns a durable engine over
// inner. Recovery happens here — before the first NewCell — so the caller
// must not have created any cell on inner yet, and must create its cells in
// the same order as the run that produced the log.
func Wrap(inner engine.Engine, opt Options) (*Engine, error) {
	return wrap(inner, opt, osFS{})
}

// wrap is Wrap over the file system fs: every file operation on the WAL
// directory goes through it, all but the temp directory's making and removal.
func wrap(inner engine.Engine, opt Options, fs fileSystem) (e *Engine, err error) {
	dir, tempDir := opt.Dir, opt.Dir == ""
	if tempDir {
		if dir, err = os.MkdirTemp("", "durable-wal-"); err != nil {
			return nil, err
		}
		defer func() {
			if err != nil {
				os.RemoveAll(dir)
			}
		}()
	}
	rec, err := recoverDir(fs, dir)
	if err != nil {
		return nil, err
	}
	if opt.SnapshotBytes == 0 {
		opt.SnapshotBytes = defaultSnapshotBytes
	}
	e = &Engine{
		inner:     inner,
		name:      "durable/" + inner.Name(),
		opt:       opt,
		recovered: rec.values,
		tempDir:   tempDir,
	}
	e.applyBody = e.applyTx
	// The ticket cell is created before any application cell and resumes
	// from the recovered sequence, so commit numbering continues densely
	// across restarts.
	e.seqCell = inner.NewCell(int64(rec.lastSeq))
	l, err := openLog(logConfig{
		dir:          dir,
		policy:       opt.Fsync,
		segmentBytes: opt.segmentBytes,
		startSeq:     rec.lastSeq + 1,
		fs:           fs,
	})
	if err != nil {
		return nil, err
	}
	e.log = l
	e.info = engine.DurabilityInfo{
		WALDir:           dir,
		FsyncPolicy:      l.cfg.policy,
		RecoveredCommits: rec.commits,
		RecoveredSeq:     rec.lastSeq,
		SnapshotSeq:      rec.snapSeq,
		TornTailBytes:    rec.tornBytes,
	}
	return e, nil
}

// dcell pairs the wrapper's stable cell id (the WAL's key) with the inner
// engine's handle.
type dcell struct {
	id    uint64
	inner engine.Cell
}

// Name returns "durable/<inner name>".
func (e *Engine) Name() string { return e.name }

// NewCell allocates the next cell id and substitutes the recovered value
// for initial when the log knows one. Ids are assigned in creation order —
// the deterministic-creation-order contract recovery depends on.
func (e *Engine) NewCell(initial any) engine.Cell {
	e.mu.Lock()
	id := uint64(len(e.cells))
	if v, ok := e.recovered.get(id); ok {
		initial = v.Load()
	}
	c := e.inner.NewCell(initial)
	e.cells = append(e.cells, c)
	e.mu.Unlock()
	return &dcell{id: id, inner: c}
}

// Thread wraps an inner thread with the journaling transaction runner.
func (e *Engine) Thread(id int) engine.Thread {
	t := &dthread{e: e, inner: e.inner.Thread(id)}
	t.body = func(itx engine.Txn) error {
		t.tx.reset(e, itx)
		return t.fn(&t.tx)
	}
	return t
}

// Stats delegates to the inner engine (snapshot-capture transactions are
// counted like any other read-only commit).
func (e *Engine) Stats() engine.Stats { return e.inner.Stats() }

// DurabilityInfo reports the persistence configuration, what recovery found
// at boot, and the live fsync counters.
func (e *Engine) DurabilityInfo() engine.DurabilityInfo {
	info := e.info
	e.log.mu.Lock()
	info.Fsyncs, info.SyncedCommits = e.log.fsyncs, e.log.synced
	e.log.mu.Unlock()
	if info.Fsyncs > 0 && info.FsyncPolicy != FsyncNever {
		info.CommitsPerFsync = float64(info.SyncedCommits) / float64(info.Fsyncs)
	}
	return info
}

// WALSync forces buffered records to stable storage regardless of policy.
func (e *Engine) WALSync() error { return e.log.Sync() }

// WALClose flushes, syncs and closes the log after waiting out any
// in-flight compaction, and removes the log directory if Wrap created it
// (an empty Options.Dir). The engine stays readable; update transactions
// fail from here on. Idempotent.
func (e *Engine) WALClose() error {
	e.compactWG.Wait()
	err := e.log.Close()
	if e.tempDir {
		err = errors.Join(err, os.RemoveAll(e.info.WALDir))
	}
	return err
}

// journal logs frame, the framed redo record of a commit the inner engine
// made at seq, as it is. The record MUST reach the sequencer, or every later ticket
// waits forever. Enough redo bytes since the last snapshot start a
// compaction.
func (e *Engine) journal(seq uint64, frame []byte) error {
	n, err := e.log.Commit(seq, frame)
	if err != nil {
		return err
	}
	e.bytesSince.Add(n)
	e.maybeCompact()
	return nil
}

// maybeCompact starts a background snapshot when enough redo bytes
// accumulated since the last one (single-flight).
func (e *Engine) maybeCompact() {
	if e.opt.SnapshotBytes < 0 || e.bytesSince.Load() < e.opt.SnapshotBytes {
		return
	}
	if !e.compacting.CompareAndSwap(false, true) {
		return
	}
	e.compactWG.Add(1)
	go func() {
		defer e.compactWG.Done()
		defer e.compacting.Store(false)
		e.compact()
	}()
}

// compact captures a consistent snapshot (SnapshotFrame) and installs it.
// Compaction is an optimization: whichever way an attempt ends, the redo
// count restarts, so a failed one (an unencodable cell, exhausted retries,
// a full disk) is retried after another SnapshotBytes of log, not on the
// next commit.
func (e *Engine) compact() {
	defer e.bytesSince.Store(0)
	if e.log.Err() != nil {
		return
	}
	if watermark, frame, err := e.SnapshotFrame(); err == nil {
		_ = e.log.WriteSnapshot(watermark, frame) // a failure waits, as above
	}
}

// SnapshotFrame captures a consistent full-state snapshot and returns its
// watermark and its framed 'S' record: every cell's value at exactly that
// watermark, in cell-id order. The capture is one read-only inner transaction
// over the ticket cell and every data cell: serializability makes the ticket
// value s the exact watermark of the captured state (every commit ≤ s is in
// it, nothing above s is). Cells can be created concurrently, so after the
// capture returns the cell count is re-checked: if it grew, a commit ≤ s
// could have written a cell the capture missed (its NewCell, which appends
// under mu, happened before that commit, which happened before the capture
// returned — so the growth is visible here), and the capture retries over the
// larger set. The frame is what the snapshot file holds: compaction writes
// it, and a replication primary ships it for follower catch-up and resync.
func (e *Engine) SnapshotFrame() (uint64, []byte, error) {
	e.snapOnce.Do(func() { e.snapThread = e.inner.Thread(snapThreadID) })
	e.snapMu.Lock() // the capture thread is single-goroutine
	defer e.snapMu.Unlock()
	for try := 0; try < 8; try++ {
		e.mu.Lock()
		cells := slices.Clone(e.cells)
		e.mu.Unlock()
		n := len(cells)

		var watermark int64
		vals := make([]val.Value, n)
		err := e.snapThread.RunReadOnly(func(tx engine.Txn) error {
			s, err := engine.Get[int64](tx, e.seqCell)
			if err != nil {
				return err
			}
			watermark = s
			for i, c := range cells {
				v, err := tx.Read(c)
				if err != nil {
					return err
				}
				vals[i] = val.OfAny(v)
			}
			return nil
		})
		if err != nil {
			return 0, nil, err
		}
		e.mu.Lock()
		grown := len(e.cells) > n
		e.mu.Unlock()
		if grown {
			continue
		}

		entries := make([]entry, 0, n)
		for i, v := range vals {
			if !EncodableValue(v) {
				// A cell was created with a non-serializable initial and
				// never overwritten; it cannot be snapshotted.
				return 0, nil, fmt.Errorf("%w: cell %d", ErrUnsupportedPayload, i)
			}
			entries = append(entries, entry{ID: uint64(i), V: v})
		}
		// Recovered cells the application has not re-created yet still
		// belong to the durable state: fold them in, after the live cells
		// and in id order too, so a snapshot never drops them.
		entries = e.recovered.appendFrom(entries, uint64(n))
		frame, err := snapshotFrame(uint64(watermark), entries)
		return uint64(watermark), frame, err
	}
	return 0, nil, errors.New("durable: snapshot capture kept losing races with cell creation")
}

// AppendedSeq returns the highest commit sequence appended to the log — the
// primary's replication high-water mark, and on a follower the applied-seq
// watermark (the apply path journals each replicated commit at its original
// seq).
func (e *Engine) AppendedSeq() uint64 { return e.log.AppendedSeq() }

// TapCommits installs tap as the log's append observer: it sees every
// journaled commit frame in seq order, called under the log mutex with
// frame bytes valid only during the call. The replication primary feeds its
// follower send buffers from here; the tap must copy and never block.
func (e *Engine) TapCommits(tap func(seq uint64, frame []byte)) { e.log.setTap(tap) }

// SetCommitGate installs gate (nil clears): after a transaction's redo
// record is journaled, its thread calls gate(seq) and returns the gate's
// error as the transaction error. The commit itself is already durable and
// journaled — the gate only withholds the acknowledgment, which is exactly
// the sync-replication semantic: "committed locally but not yet confirmed
// replicated" surfaces as an error without blocking the log.
func (e *Engine) SetCommitGate(gate func(seq uint64) error) {
	if gate == nil {
		e.gate.Store(nil)
		return
	}
	e.gate.Store(&gate)
}

// SetStandby switches the follower role on or off. In standby, update
// transactions are refused with ErrStandby before the inner engine can
// commit anything; reads are served normally. Promote is SetStandby(false)
// after sealing the log.
func (e *Engine) SetStandby(on bool) { e.standby.Store(on) }

// ApplyReplicated applies one record frame a replication primary shipped, as
// ReadFrame read it, and journals the frame as it arrived, so the follower
// encodes no record and its log holds the primary's bytes. ReadFrame checked
// the frame's header and CRC, and a commit's frame is journaled unchecked, so
// a caller passes nothing else. The record is
// decoded once; its entries (an unknown cell id is a keyspace mismatch with
// the primary) are applied in one inner transaction that also sets the
// ticket cell to its seq, so numbering continues across a promotion.
//
// A commit must carry the next seq (a gap is a stream error: the caller
// resyncs from a snapshot) and is journaled after it is applied. A snapshot
// replaces the state wholesale and may not regress the applied seq: its
// frame, reframed, becomes the snapshot file first (a crash
// mid-install recovers the old state or the new one), then it is applied,
// then the sequencer jumps past its watermark on a fresh segment. Memory
// always moves before the watermark, so AppendedSeq never advertises a seq
// reads do not return.
func (e *Engine) ApplyReplicated(frame []byte) error {
	if err := e.log.usable(); err != nil {
		return err
	}
	e.applyOnce.Do(func() { e.applyThread = e.inner.Thread(applyThreadID) })
	if len(frame) < FrameHeaderLen {
		return fmt.Errorf("durable: replicated frame of %d bytes is shorter than its header", len(frame))
	}
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	kind, seq, entries, err := decodeRecord(frame[FrameHeaderLen:], e.applyEntries)
	if err != nil {
		return err
	}
	if kind == recSnapshot { // an entry per cell: keep none of their values
		defer func() { e.applyEntries, e.applyCells = nil, nil }()
	}
	e.applySeq, e.applyEntries = seq, entries
	switch cur := e.log.AppendedSeq(); {
	case kind == recCommit && seq != cur+1:
		return fmt.Errorf("durable: replicated record out of order: got seq %d, want %d", seq, cur+1)
	case kind == recSnapshot && seq < cur:
		return fmt.Errorf("durable: replica snapshot at %d would regress applied seq %d", seq, cur)
	}
	e.mu.Lock()
	e.applyCells = e.applyCells[:0]
	for _, en := range entries {
		if en.ID >= uint64(len(e.cells)) {
			e.mu.Unlock()
			return fmt.Errorf("durable: replicated write to unknown cell %d (have %d; keyspace mismatch with primary?)", en.ID, len(e.cells))
		}
		e.applyCells = append(e.applyCells, e.cells[en.ID])
	}
	e.mu.Unlock()
	if kind == recCommit {
		if err := e.applyThread.Run(e.applyBody); err != nil {
			return err
		}
		return e.journal(seq, frame)
	}
	if err := e.log.WriteSnapshot(seq, Frame(frame)); err != nil {
		return err
	}
	err = e.applyThread.Run(e.applyBody)
	if err == nil {
		err = e.log.skipTo(seq + 1)
	}
	if err != nil {
		// The on-disk image already moved to the snapshot; memory or the
		// sequencer failing to follow leaves them divergent, so wedge rather
		// than limp on.
		return e.log.wedge(fmt.Errorf("durable: replica snapshot install failed after the snapshot was written: %w", err))
	}
	e.bytesSince.Store(0)
	return nil
}

// applyTx is the one transaction a replicated record is applied in, on the
// apply thread: it sets the ticket cell to applySeq and writes each of
// applyEntries to its cell in applyCells. An int goes through the int lane,
// as dtxn.WriteInt wrote it on the primary, so it is not boxed.
func (e *Engine) applyTx(tx engine.Txn) error {
	if err := engine.Set(tx, e.seqCell, int64(e.applySeq)); err != nil {
		return err
	}
	for i, en := range e.applyEntries {
		var err error
		if n, _ := en.V.AsInt64(); en.V.Kind() == val.KindInt {
			err = tx.WriteInt(e.applyCells[i], n)
		} else {
			err = tx.Write(e.applyCells[i], en.V.Load())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// dthread is the journaling thread wrapper: it runs the caller's closure
// over a journaling transaction, and after the inner commit hands the redo
// record to the log sequencer.
type dthread struct {
	e       *Engine
	inner   engine.Thread
	tx      dtxn
	scratch []byte
	// fn is the caller's closure for the Run in progress; body, built once
	// per thread, runs it over tx — so a commit allocates no closure.
	fn   func(engine.Txn) error
	body func(engine.Txn) error
}

func (t *dthread) ID() int { return t.inner.ID() }

// Attempts implements engine.AttemptCounter by delegation.
func (t *dthread) Attempts() uint64 {
	if ac, ok := t.inner.(engine.AttemptCounter); ok {
		return ac.Attempts()
	}
	return 0
}

var framePad [FrameHeaderLen]byte

func (t *dthread) Run(fn func(engine.Txn) error) error {
	if err := t.e.log.Err(); err != nil {
		return err
	}
	tx := &t.tx
	t.fn = fn
	if err := t.inner.Run(t.body); err != nil {
		return err
	}
	if tx.seq == 0 {
		return nil // no writes: nothing to journal
	}
	frame, err := appendRecord(append(t.scratch[:0], framePad[:]...), recCommit, tx.seq, tx.writes)
	t.scratch = frame[:0]
	if err != nil {
		// Write screens every payload, so this is an internal invariant
		// break; wedge the log so that later tickets, which wait for this
		// record, wake instead of hanging.
		return t.e.log.wedge(fmt.Errorf("durable: payload of commit %d became unencodable: %w", tx.seq, err))
	}
	if err := t.e.journal(tx.seq, Frame(frame)); err != nil {
		return err
	}
	if g := t.e.gate.Load(); g != nil {
		// Sync replication: the commit is durable and journaled, but the
		// client ack waits on the replication gate. A gate error means
		// "committed locally, not confirmed replicated" — the safe direction,
		// since callers then do not count it as acknowledged.
		if err := (*g)(tx.seq); err != nil {
			return err
		}
	}
	return nil
}

func (t *dthread) RunReadOnly(fn func(engine.Txn) error) error {
	if err := t.e.log.Err(); err != nil {
		return err
	}
	t.fn = fn
	return t.inner.RunReadOnly(t.body)
}

// dtxn is the journaling transaction: reads pass through; writes screen the
// payload for WAL-serializability, take the commit ticket on first use, and
// buffer the redo entry.
type dtxn struct {
	e      *Engine
	itx    engine.Txn
	seq    uint64
	writes []entry
}

func (t *dtxn) reset(e *Engine, itx engine.Txn) {
	t.e = e
	t.itx = itx
	t.seq = 0
	t.writes = t.writes[:0]
}

// ticket read-increments the sequence cell inside the transaction — the
// serialization-order ticket (see the package comment).
func (t *dtxn) ticket() error {
	if t.seq != 0 {
		return nil
	}
	// Refuse before the inner engine can commit: after a crash the memory
	// image is untrustworthy, and after an orderly close an update would
	// commit in memory with no journal entry.
	if err := t.e.log.usable(); err != nil {
		return err
	}
	if t.e.standby.Load() {
		return ErrStandby
	}
	s, err := engine.Get[int64](t.itx, t.e.seqCell)
	if err != nil {
		return err
	}
	if err := engine.Set(t.itx, t.e.seqCell, s+1); err != nil {
		return err
	}
	t.seq = uint64(s) + 1
	return nil
}

func (t *dtxn) Read(c engine.Cell) (any, error) {
	return t.itx.Read(c.(*dcell).inner)
}

func (t *dtxn) Write(c engine.Cell, v any) error {
	dc := c.(*dcell)
	w := val.OfAny(v)
	if !EncodableValue(w) {
		return fmt.Errorf("%w: %T", ErrUnsupportedPayload, v)
	}
	if err := t.ticket(); err != nil {
		return err
	}
	if err := t.itx.Write(dc.inner, v); err != nil {
		return err
	}
	t.writes = append(t.writes, entry{ID: dc.id, V: w})
	return nil
}

func (t *dtxn) ReadInt(c engine.Cell) (int64, bool, error) {
	return t.itx.ReadInt(c.(*dcell).inner)
}

func (t *dtxn) WriteInt(c engine.Cell, v int64) error {
	dc := c.(*dcell)
	if err := t.ticket(); err != nil {
		return err
	}
	if err := t.itx.WriteInt(dc.inner, v); err != nil {
		return err
	}
	t.writes = append(t.writes, entry{ID: dc.id, V: val.OfInt(int(v))})
	return nil
}

// Wrapped lists the inner backends registered as "durable/<name>" wrappers.
var Wrapped = []string{"glock", "lsa/shared", "norec"}

func init() {
	for _, base := range Wrapped {
		info, ok := engine.Describe(base)
		if !ok {
			panic(fmt.Sprintf("durable: base engine %q not registered", base))
		}
		caps := info.Capabilities
		caps.Durable = true
		caps.Tunables = append(append([]string{}, caps.Tunables...), "wal", "fsync", "snapshot")
		engine.Register("durable/"+base, engine.Info{
			Summary:      "recoverable " + base + ": redo WAL + compacting snapshot, crash recovery on boot",
			Capabilities: caps,
		}, func(o engine.Options) (engine.Engine, error) {
			inner, err := engine.New(base, o)
			if err != nil {
				return nil, err
			}
			return Wrap(inner, Options{
				Dir:           o.WALDir,
				Fsync:         o.Fsync,
				SnapshotBytes: o.SnapshotBytes,
			})
		})
	}
}
