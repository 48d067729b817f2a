// Package engine defines the backend-neutral transactional-memory interface
// that every STM variant in this repository implements, plus a name-keyed
// registry of backends.
//
// The paper's claims are comparative — LSA-RT against the shared-counter,
// TL2-style, and hardware-clock time bases, and against single-version and
// validating STM designs — so the repository carries several engines:
//
//   - the multi-version object-based LSA core (internal/core), under every
//     pluggable time base ("lsa/shared", "lsa/tl2ts", "lsa/sharded",
//     "lsa/mmtimer", "lsa/ideal", "lsa/extsync"); with MaxVersions 1 the
//     same core is the single-version ablation on any of them,
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
// storing). The typed accessors Get, Set and Update recover static typing on
// top of the any-valued Txn interface.
package engine

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/abort"
)

// Cell is an opaque handle to one transactional variable. Cells are created
// by Engine.NewCell and are only valid with transactions of that engine.
type Cell interface{}

// Txn is one transaction attempt. The closure passed to Thread.Run receives
// a Txn and must confine its side effects to Read and Write; on error it
// must return promptly (the engine retries aborted attempts).
type Txn interface {
	// Read returns the cell's value in the transaction's snapshot.
	Read(c Cell) (any, error)
	// Write installs val as the cell's tentative new value; it becomes
	// visible atomically at commit.
	Write(c Cell, val any) error
}

// IntTxn is the optional unboxed numeric lane: a Txn that additionally
// implements it moves int-typed payloads as plain int64 words, with no
// interface boxing anywhere on the path. Every backend in this repository
// implements it; the typed accessors Get, Set and Update detect it with one
// type assertion and use it automatically, so int-valued workloads ride the
// lane with no code changes.
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
	// UpdateInt applies f as a read-modify-write through the numeric lane.
	// ok is false (and nothing is written) when the cell holds a boxed
	// payload.
	UpdateInt(c Cell, f func(int64) int64) (ok bool, err error)
}

// updateIntVia implements IntTxn.UpdateInt in terms of ReadInt/WriteInt —
// shared by every adapter wrapper (each is a one-pointer struct, so the
// interface conversion here does not allocate).
func updateIntVia(t IntTxn, c Cell, f func(int64) int64) (bool, error) {
	n, ok, err := t.ReadInt(c)
	if !ok || err != nil {
		return ok, err
	}
	return true, t.WriteInt(c, f(n))
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

// Stats aggregates commit/abort counters across an engine's threads.
//
// The Abort* fields are the cross-engine abort-reason taxonomy (see
// internal/abort): every registered backend classifies each abort into
// exactly one of them — AbortSnapshot, AbortValidation, AbortExternal,
// AbortContention — so their sum equals Aborts on every engine (asserted by
// the conformance suite via UnclassifiedAborts). The first three mirror the
// LSA core's native causes; AbortContention comes from the lock-based
// engines' bounded lock waits. AbortConflict is a fifth bucket no in-tree
// engine sets.
type Stats struct {
	// Commits counts successfully committed transactions.
	Commits uint64 `json:"commits"`
	// Aborts counts aborted attempts (every retry is one abort).
	Aborts uint64 `json:"aborts"`
	// AbortSnapshot counts aborts for lack of a consistent snapshot.
	AbortSnapshot uint64 `json:"abort_snapshot,omitempty"`
	// AbortValidation counts commit-time validation failures.
	AbortValidation uint64 `json:"abort_validation,omitempty"`
	// AbortConflict counts aborts a transaction decreed against itself on a
	// write-write conflict. No in-tree engine sets this; kept for bench/,
	// which reports its share.
	AbortConflict uint64 `json:"abort_conflict,omitempty"`
	// AbortExternal counts aborts inflicted by other threads.
	AbortExternal uint64 `json:"abort_external,omitempty"`
	// AbortContention counts aborts from bounded waits on locks that ran out
	// while another thread held them.
	AbortContention uint64 `json:"abort_contention,omitempty"`
	// UserAborts counts transactions abandoned by application error.
	UserAborts uint64 `json:"user_aborts,omitempty"`
	// Extensions counts validity-range extension attempts.
	Extensions uint64 `json:"extensions,omitempty"`
	// Helps counts completions of other transactions' commits.
	Helps uint64 `json:"helps,omitempty"`
	// EnemyAborts counts enemy transactions aborted by this engine's
	// threads.
	EnemyAborts uint64 `json:"enemy_aborts,omitempty"`
	// BoxedCommits counts commits that wrote at least one escape-hatch
	// (boxed, non-numeric) payload — the complement of the unboxed int
	// lane. Omitted when zero, so snapshots from engines (or eras) without
	// the counter parse unchanged.
	BoxedCommits uint64 `json:"boxed_commits,omitempty"`
}

// BoxedShare returns the fraction of commits that took the boxing escape
// hatch (0 when nothing committed).
func (s Stats) BoxedShare() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.BoxedCommits) / float64(s.Commits)
}

// ClassifiedAborts returns the sum of the abort-taxonomy buckets.
func (s Stats) ClassifiedAborts() uint64 {
	return s.AbortSnapshot + s.AbortValidation + s.AbortConflict +
		s.AbortExternal + s.AbortContention
}

// UnclassifiedAborts returns how many aborts no taxonomy bucket accounts
// for. Every registered backend classifies all of its aborts, so this is 0
// on freshly produced stats (the conformance suite asserts it); legacy
// snapshot records may carry a nonzero value. Classified counts exceeding
// Aborts (impossible by construction) also report 0 rather than wrapping.
func (s Stats) UnclassifiedAborts() uint64 {
	c := s.ClassifiedAborts()
	if c >= s.Aborts {
		return 0
	}
	return s.Aborts - c
}

// AbortMix renders the abort-reason composition compactly for tables:
// percentage shares of Aborts as "snap12+val80+lock8" (reasons with a zero
// share omitted, "ext" for the LSA core's externally inflicted aborts, "cm"
// for AbortConflict, which no in-tree engine sets, "unk" for any
// unclassified remainder). "-" when nothing aborted.
func (s Stats) AbortMix() string {
	if s.Aborts == 0 {
		return "-"
	}
	parts := make([]string, 0, 6)
	add := func(label string, n uint64) {
		if n == 0 {
			return
		}
		parts = append(parts, fmt.Sprintf("%s%.0f", label, 100*float64(n)/float64(s.Aborts)))
	}
	add("snap", s.AbortSnapshot)
	add("val", s.AbortValidation)
	add("cm", s.AbortConflict)
	add("ext", s.AbortExternal)
	add("lock", s.AbortContention)
	add("unk", s.UnclassifiedAborts())
	return strings.Join(parts, "+")
}

// AbortRate returns aborts per attempt: Aborts / (Commits + Aborts).
func (s Stats) AbortRate() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// String renders the counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf("commits=%d aborts=%d (rate=%.4f)", s.Commits, s.Aborts, s.AbortRate())
}

// Get reads the cell and asserts its value to T. For T = int or int64 on a
// lane-capable transaction the read goes through IntTxn.ReadInt and never
// boxes; the pointer-typed switch on &zero compiles to a static dispatch
// with no interface allocation (pointers are direct interface values, and
// the interface does not escape).
func Get[T any](tx Txn, c Cell) (T, error) {
	var zero T
	switch p := any(&zero).(type) {
	case *int:
		if it, ok := tx.(IntTxn); ok {
			n, isNum, err := it.ReadInt(c)
			if err != nil {
				return zero, err
			}
			if isNum {
				*p = int(n)
				return zero, nil
			}
		}
	case *int64:
		if it, ok := tx.(IntTxn); ok {
			n, isNum, err := it.ReadInt(c)
			if err != nil {
				return zero, err
			}
			if isNum {
				*p = n
				return zero, nil
			}
		}
	}
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

// Set writes a typed value to the cell. For T = int or int64 on a
// lane-capable transaction the write goes through IntTxn.WriteInt and never
// boxes.
func Set[T any](tx Txn, c Cell, v T) error {
	switch p := any(&v).(type) {
	case *int:
		if it, ok := tx.(IntTxn); ok {
			return it.WriteInt(c, int64(*p))
		}
	case *int64:
		if it, ok := tx.(IntTxn); ok {
			return it.WriteInt(c, *p)
		}
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

// txnCounters are the per-thread commit/abort tallies shared by the adapter
// backends whose native runtimes keep no statistics. The attempt count of a
// retry loop (how many times the closure ran) fully determines them: the
// last attempt either committed or carried the user error out, every
// earlier one was an abort. The trailing padding keeps each worker's
// counters off its neighbours' cache lines.
type txnCounters struct {
	commits      uint64
	aborts       uint64
	userAborts   uint64
	boxedCommits uint64
	abortReasons abort.Counts
	_            [32]byte
}

func (c *txnCounters) record(attempts uint64, err error) {
	if attempts == 0 {
		return
	}
	c.aborts += attempts - 1
	if err == nil {
		c.commits++
	} else {
		c.userAborts++
	}
}

// counterSet is the per-engine registry of thread counters embedded by the
// adapter backends: Thread() allocates one entry per worker, Stats() sums
// them.
type counterSet struct {
	mu       sync.Mutex
	counters []*txnCounters
}

func (s *counterSet) newCounters() *txnCounters {
	c := &txnCounters{}
	s.mu.Lock()
	s.counters = append(s.counters, c)
	s.mu.Unlock()
	return c
}

func (s *counterSet) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total Stats
	for _, c := range s.counters {
		total.Commits += c.commits
		total.Aborts += c.aborts
		total.UserAborts += c.userAborts
		total.BoxedCommits += c.boxedCommits
		total.AbortSnapshot += c.abortReasons[abort.Snapshot]
		total.AbortValidation += c.abortReasons[abort.Validation]
		total.AbortContention += c.abortReasons[abort.Contention]
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
// IntTxn and AttemptCounter are detected.
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
	// TornTailBytes is how many bytes of torn final record recovery
	// truncated from the log tail (0 for a clean log).
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
