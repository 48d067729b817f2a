// Package core implements LSA-RT, the Real-Time Lazy Snapshot Algorithm of
// Riegel, Fetzer and Felber ("Time-based Transactional Memory with Scalable
// Time Bases", SPAA 2007): an object-based, multi-version software
// transactional memory whose notion of time is pluggable.
//
// # Protocol
//
// Every committed object version carries a validity range [⌊v.R⌋, ⌈v.R⌉]:
// it becomes valid at its writer's commit time and is superseded one tick
// before the next version's commit time. A transaction T incrementally
// maintains its own validity range T.R — the intersection of the ranges of
// every version it has accessed. While T.R is non-empty, the versions T has
// read are a consistent snapshot (they were all valid simultaneously), so
// the engine never re-validates the read set on ordinary accesses. The
// moving parts (paper Algorithms 2–3):
//
//   - Open (read): select the most recent committed version overlapping
//     T.R; intersect T.R with its range; abort if empty. Declared read-only
//     transactions may instead select an older version overlapping T.R —
//     that is what makes long scans abort-free while history suffices. Once
//     their upper bound is finite, a writer-free head that starts inside
//     T.R costs them one locator load: its range provably covers ⌈T.R⌉, so
//     only ⌊T.R⌋ can move (see prelimUB).
//   - Extend: recompute ⌈T.R⌉ against the current time when the snapshot
//     is too old for a version the transaction needs. A superseded version
//     in the read set closes the transaction (no extension can help).
//   - Open (write): register as the object's writer (visible writes,
//     DSTM-style) and buffer a tentative version. A committing owner is
//     helped to completion; an active one gets three yielding rounds to
//     finish and is then aborted — the paper's configurable contention
//     manager, fixed to that one policy.
//   - Commit (update transactions): CAS active→committing, fix the commit
//     time CT with a fresh timestamp, check every accessed version is still
//     valid at CT, then CAS committing→committed — which atomically
//     publishes all tentative versions. Any thread can complete a
//     committing transaction (helping); every step is an idempotent CAS.
//
// # Structure
//
// Object holds an atomically-swapped locator {writer, version}: without a
// writer the version is the committed head, under a writer it is the
// writer's tentative version and its prev link is the committed head.
// Committed versions chain newest-first and are trimmed to the runtime's
// MaxVersions. Timestamp comparisons go through the time base's
// timebase.Order, built once per Runtime, which masks the base's deviation
// (the reading error of externally synchronized clocks, 0 for exact bases),
// so the same engine runs on shared counters, hardware clocks, and
// software-corrected clocks.
//
// # Memory
//
// An attempt pays per transaction, not per access, and a steady workload
// pays nothing. An update attempt runs in a record — a Tx and, in the same
// allocation, the arrays its access-set entries and writer locators start
// out in (8 entries, 4 locators) — and cuts its tentative versions from
// its thread's chunk. A larger attempt overflows into an entry slice sized
// by the thread's recent commits and a locator chunk sized for the whole
// transaction, and the record keeps both for its next attempt, so a record
// that has run the thread's steady transaction allocates nothing more.
// Commit builds nothing: whoever settles an object whose writer committed
// promotes the tentative version in place — stamps the predecessor's upper
// bound and the version's own validFrom, trims, and publishes the locator
// embedded in the version — and an aborted writer's locator is replaced by
// the one embedded in the version it was acquired over. Each stamp is one
// atomic word that racing settlers CAS from 0 to the same value (see
// settled), so settling allocates nothing either.
//
// Records and versions are recycled, by epoch-based reclamation. A
// finished update attempt waits while its thread runs two more; by then
// the next access to an object it wrote may have settled it, and its owner
// settles any object that still names the record, so no locator names it
// any more. The owner then retires the record to its list, tagged with the
// runtime's epoch, and a thread that has
// retired a batch of records in one epoch moves the epoch on itself. A
// version has an owner, the thread whose attempts write it, set when it is
// cut from a chunk. The settler whose trim unlinks a version from its
// history (by CAS, so exactly one does) retires it to its version list,
// tagged the same way, if it is the owner. Another thread's version it
// hands back: it pushes it to the owner's inbox, a ring of slots on cache
// lines of their own, claiming a slot with one atomic add and filling it
// by CAS from nil. A version whose slot is still full goes to the
// collector, as does a genesis version. The owner drains its inbox at the
// start of each outermost update attempt, into its version list, tagged
// with an epoch it loads after it has taken the versions. That order is
// what keeps a handed-back version safe: each cut happened before the
// push, so its epoch is no later than the tag, and a thread that found the
// version before the cut pinned no later than the tag either. An epoch
// loaded before the take could precede a cut: tagged with it, the version
// would come back two epochs later, while a reader pinned in the cut's
// epoch may still hold it. The owner also retires the tentative versions
// of an aborted attempt once no locator names them.
// All three lists are one type (limbo): a FIFO ring of tagged items and a
// stack of never-published ones. A record or version is reused only by
// its owner (newTx, newWrite), and only if the epoch was two past its tag
// when the owner's outermost update attempt began: an attempt reads its
// own thread's versions unpinned, so one it read and then cut must not
// come back before that attempt is over.
//
// Another thread may still hold a record or version: to help a commit, to
// abort an enemy, to read the version under a writer, or to walk a
// history. What it may read of them without more ado is what never
// changes: a locator's writer (for a locator in a record or its chunk,
// that record, set when it is first used) and a version's owner and
// embedded locator. To read anything else of another thread's record or
// version it first pins the epoch (Thread.protect) and loads the pointer
// again, and it stays pinned until its attempt ends. The epoch advances only when
// every pinned thread has pinned the current one, so nothing is reused
// while a thread that found it is pinned; its own records and versions,
// and genesis versions, a thread reads unpinned, so an attempt that never
// meets another thread's writer or version never pins and never holds
// reuse up. A record or version that was never published is reusable at
// once. A thread keeps at most limboCap records and versionCap
// versions (what it retires in epochGrace+1 epochs); past that, and while
// the epoch is held up, it allocates. The owner pointer does not break the
// rule that keeps old histories collectable (TestHeapPlateau): apart from
// prev, a version points at nothing but itself and its owner thread, which
// the runtime holds anyway; a pointer from a version into a Tx, or into
// another attempt's chunk, would keep the whole commit history reachable.
// The *Tx handed to fn is good only until fn returns, for update and
// read-only attempts alike.
//
// A declared read-only attempt keeps no access set, enters no locator and
// is never helped or named as an enemy: only its own thread can hold a
// pointer to it, so all of a Thread's read-only attempts run in one record
// (a transaction nested in one gets its own). It never extends or
// validates, so every read is selected and range-checked on its own and
// nothing is logged.
//
// # Deviations from the paper's pseudo-code
//
// Three deliberate, documented deviations (rationale at the definitions):
//
//   - getPrelimUB helps a committing writer fix its commit time before
//     reasoning about it (ensureCT): the pseudo-code returns the caller's
//     timestamp while CT is unset, which under preemption lets a commit
//     land in the reasoned-about past; the paper's §2.4 prose requires the
//     wait/help this implements.
//   - The snapshot's upper bound is clamped to "now" on first use instead
//     of staying ∞ (effLimit), implementing the §1.1 rule that reading a
//     most-recent version bounds the snapshot at the current time.
//   - Update transactions always read most-recent versions (extending as
//     needed): reading an older version would make their commit-time
//     extension impossible, so the flexibility is reserved for read-only
//     transactions, as in the authors' LSA-STM.
//
// Like the paper's LSA-RT, update transactions always extend their snapshot
// when needed and always commit serializably (commit-time validation of the
// whole read set); there is no switch for either.
package core
