// Package engine defines the backend-neutral transactional-memory interface
// that every STM variant in this repository implements, plus a name-keyed
// registry of backends.
//
// The paper's claims are comparative — LSA-RT against the shared-counter,
// TL2-style, and hardware-clock time bases, and against single-version and
// validating STM designs — so the repository carries several engines:
//
//   - the multi-version object-based LSA core (internal/core), under every
//     pluggable time base ("lsa/shared", "lsa/tl2ts", "lsa/mmtimer",
//     "lsa/ideal", "lsa/extsync"); with MaxVersions 1 the same core is
//     the single-version ablation on any of them,
//   - the word-based LSA variant ("wordstm"),
//   - a TL2 reimplementation ("tl2") on its own integer version clock,
//   - a validating STM with the RSTM commit-counter heuristic ("rstmval"),
//   - a NOrec-style value-validating STM over a single global sequence lock
//     ("norec") — the minimal-metadata counterpoint,
//   - a coarse-global-lock reference engine ("glock") — the honesty
//     baseline for low thread counts.
//
// This package makes them interchangeable: workloads, the throughput
// harness, the stress tool, and the benchmarks are written once against
// Engine/Thread/Txn and run on any registered backend by name.
//
// A Cell is an engine-specific handle for one transactional variable; it
// must only be used with transactions of the engine that created it. Values
// are stored as immutable snapshots (callers copy mutable values before
// storing). Every Txn carries two lanes: the any-valued Read/Write pair and
// the unboxed int64 lane of IntTxn. The typed accessors Get, Set and Update
// recover static typing on top of both, routing int and int64 through the
// unboxed lane.
package engine

import (
	"fmt"
	"sync"

	"repro/internal/abort"
)

// Cell is an opaque handle to one transactional variable. Cells are created
// by Engine.NewCell and are only valid with transactions of that engine.
type Cell interface{}

// Txn is one transaction attempt. The closure passed to Thread.Run receives
// a Txn and must confine its side effects to its reads and writes; on error
// it must return promptly (the engine retries aborted attempts).
//
// Every Txn implements both lanes: Read/Write move any value, boxed; the
// embedded IntTxn moves int-typed payloads as plain int64 words.
type Txn interface {
	// Read returns the cell's value in the transaction's snapshot.
	Read(c Cell) (any, error)
	// Write installs val as the cell's tentative new value; it becomes
	// visible atomically at commit.
	Write(c Cell, val any) error
	IntTxn
}

// IntTxn is the unboxed numeric lane every Txn carries: int-typed payloads
// move as plain int64 words, with no interface boxing anywhere on the path.
// The typed accessors Get, Set and Update use it for T = int or int64, so
// int-valued workloads ride the lane with no code changes.
//
// Lane semantics: values written through WriteInt have canonical dynamic
// type int (a raw Txn.Read returns int), and ReadInt serves any numeric
// payload (int or int64) regardless of which API wrote it — the lane erases
// the int/int64 width distinction for typed accessors, while the generic
// Read/Write pair preserves exact dynamic types end to end.
type IntTxn interface {
	// ReadInt returns the cell's value through the numeric lane. ok reports
	// whether the cell currently holds a numeric payload; when false the
	// caller falls back to Read (the escape hatch).
	ReadInt(c Cell) (v int64, ok bool, err error)
	// WriteInt installs v through the numeric lane without boxing.
	WriteInt(c Cell, v int64) error
}

// Thread is one worker's execution context. A Thread must be used by a
// single goroutine; create one per worker with Engine.Thread.
type Thread interface {
	// ID returns the worker id the thread was created with.
	ID() int
	// Run executes fn as an update-capable transaction, retrying on aborts
	// until it commits. A non-abort error from fn cancels the transaction
	// and is returned unchanged.
	Run(fn func(Txn) error) error
	// RunReadOnly executes fn as a declared read-only transaction: writes
	// are rejected, and multi-version engines may serve reads from older
	// versions so long scans do not abort concurrent updates.
	RunReadOnly(fn func(Txn) error) error
}

// Engine is an instantiated transactional memory backend.
type Engine interface {
	// Name identifies the backend (usually its registry name).
	Name() string
	// NewCell allocates a transactional variable holding initial. Safe to
	// call concurrently, including from inside transaction closures (a cell
	// is private until a committed write publishes a reference to it).
	NewCell(initial any) Cell
	// Thread creates the execution context for one worker goroutine. id
	// selects the worker's clock for per-node time bases; use dense indices
	// 0..N−1.
	Thread(id int) Thread
	// Stats sums all threads' counters. Only call while no transactions
	// run; engines keep per-thread counters unsynchronized so statistics
	// cannot perturb the scalability under measurement.
	Stats() Stats
}

// Stats is the commit/abort record every engine keeps per thread and sums
// across its threads: the cross-engine abort-reason taxonomy lives with it
// in internal/abort.
type Stats = abort.Stats

// Get reads the cell and asserts its value to T. For T = int or int64 the
// read goes through the transaction's IntTxn.ReadInt and never boxes; a cell
// holding a boxed payload falls back to Read. The switch on &zero is not
// resolved at compile time: Go compiles one body per GC shape, so it
// compares *T, read from the instantiation's dictionary, with each case. It
// does not allocate (pointers are direct interface values, and the
// interface does not escape).
func Get[T any](tx Txn, c Cell) (T, error) {
	var zero T
	switch p := any(&zero).(type) {
	case *int:
		n, isNum, err := tx.ReadInt(c)
		if err != nil {
			return zero, err
		}
		if isNum {
			*p = int(n)
			return zero, nil
		}
	case *int64:
		n, isNum, err := tx.ReadInt(c)
		if err != nil {
			return zero, err
		}
		if isNum {
			*p = n
			return zero, nil
		}
	}
	return getBoxed[T](tx, c)
}

// getBoxed is Get's escape hatch: the boxed Read and a dynamic assertion
// to T.
func getBoxed[T any](tx Txn, c Cell) (T, error) {
	var zero T
	v, err := tx.Read(c)
	if err != nil {
		return zero, err
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("engine: cell holds %T, not %T", v, zero)
	}
	return t, nil
}

// Set writes a typed value to the cell. For T = int or int64 the write goes
// through the transaction's IntTxn.WriteInt and never boxes.
func Set[T any](tx Txn, c Cell, v T) error {
	switch p := any(&v).(type) {
	case *int:
		return tx.WriteInt(c, int64(*p))
	case *int64:
		return tx.WriteInt(c, *p)
	}
	return tx.Write(c, v)
}

// Update applies f to the cell's current value and stores the result — the
// common read-modify-write in one call. Composed from Get and Set, it
// inherits their unboxed int lane.
func Update[T any](tx Txn, c Cell, f func(T) T) error {
	cur, err := Get[T](tx, c)
	if err != nil {
		return err
	}
	return Set(tx, c, f(cur))
}

// counterSet lists the native per-thread records of an adapter backend's
// threads, which their retry loops keep; Stats sums them.
type counterSet struct {
	mu    sync.Mutex
	stats []*abort.Stats
}

// track registers a new thread's record and returns it.
func (s *counterSet) track(st *abort.Stats) *abort.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = append(s.stats, st)
	return st
}

func (s *counterSet) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total Stats
	for _, st := range s.stats {
		total.Add(st)
	}
	return total
}

// AttemptCounter is the optional per-thread attempt telemetry: a Thread that
// implements it reports the cumulative number of transaction attempts it has
// run (commits + aborted attempts + user-aborted finals). The harness uses
// the per-step deltas to feed the per-attempt retry-latency histogram; every
// backend in this repository implements it.
type AttemptCounter interface {
	// Attempts returns the cumulative attempt count. Single-goroutine, like
	// the Thread itself.
	Attempts() uint64
}

// Durable is the optional persistence capability: an Engine that implements
// it journals every committed write to a write-ahead log and recovers its
// state from that log (plus a compacting snapshot) on construction. The
// internal/durable wrappers are the in-tree implementation; callers that
// hold only an Engine (the service layer, the harness) reach durability
// controls through this interface instead of concrete types, mirroring how
// AttemptCounter is detected.
type Durable interface {
	// DurabilityInfo reports the persistence configuration and the
	// recovery-on-boot outcome. Cheap; callable at any time.
	DurabilityInfo() DurabilityInfo
	// WALSync flushes buffered redo records and forces them to stable
	// storage regardless of the configured fsync policy.
	WALSync() error
	// WALClose flushes, syncs and closes the persistence layer. The engine
	// stays readable in memory, but subsequent update transactions fail.
	// Call it as the last step of an orderly shutdown, after every session
	// has drained. Safe to call more than once.
	WALClose() error
}

// DurabilityInfo describes a durable engine's persistence configuration and
// what recovery-on-boot found. It is embedded in service stats and in the
// bench snapshot's accepted-but-not-required wal telemetry block.
type DurabilityInfo struct {
	// WALDir is the log directory (empty for an engine-managed temp dir).
	WALDir string `json:"wal_dir,omitempty"`
	// FsyncPolicy is the configured policy: "always", "group" or "never".
	FsyncPolicy string `json:"fsync_policy"`
	// RecoveredCommits counts the redo records replayed at boot (snapshot
	// state excluded — a snapshot-only boot reports 0 here).
	RecoveredCommits uint64 `json:"recovered_commits"`
	// RecoveredSeq is the last commit sequence number restored (snapshot
	// watermark included); new commits continue from RecoveredSeq+1.
	RecoveredSeq uint64 `json:"recovered_seq"`
	// SnapshotSeq is the watermark of the snapshot recovery started from
	// (0 when boot replayed the log alone).
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
	// TornTailBytes is how many bytes of a torn final record recovery
	// truncated from the log tail, up to the last non-zero one: the zero
	// rest of a preallocated segment is truncated too but not counted (0
	// for a clean log, and for one abandoned between records).
	TornTailBytes int64 `json:"torn_tail_bytes,omitempty"`
	// Fsyncs counts the log fsyncs issued since boot and SyncedCommits the
	// commits they made durable; CommitsPerFsync, their ratio, is the
	// group-commit batch size (1 under "always"; absent before the first
	// fsync and under "never", where only rotation, WALSync and WALClose
	// fsync at all).
	Fsyncs          uint64  `json:"fsyncs,omitempty"`
	SyncedCommits   uint64  `json:"synced_commits,omitempty"`
	CommitsPerFsync float64 `json:"commits_per_fsync,omitempty"`
}
