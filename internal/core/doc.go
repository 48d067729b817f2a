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
//     that is what makes long scans abort-free while history suffices.
//   - Extend: recompute ⌈T.R⌉ against the current time when the snapshot
//     is too old for a version the transaction needs. A superseded version
//     in the read set closes the transaction (no extension can help).
//   - Open (write): register as the object's writer (visible writes,
//     DSTM-style) and buffer a tentative version. A committing owner is
//     helped to completion; an active one gets three backed-off rounds to
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
// MaxVersions. Timestamp comparisons delegate to internal/timebase, which
// masks the reading error of imprecise (externally synchronized) clocks, so
// the same engine runs on shared counters, hardware clocks, and
// software-corrected clocks.
//
// # Memory
//
// An attempt pays per transaction, not per access, and nothing another
// thread could still reach is ever reused (so no reclamation protocol is
// needed). An update attempt is one record — a Tx and, in the same
// allocation, the arrays its access-set entries and writer locators start
// out in — plus, if it writes, one chunk holding all its tentative versions. The record comes in two shapes, picked from
// what the thread's recent commits used: small (8 entries, 4 locators) and
// wide (16 of each); past the wide shape a small record overflows, once
// each, into a hint-sized entry slice and locator chunk. An update record
// may sit in a locator or under a helper long after its owner moved on, so
// every update attempt gets a new one. A declared read-only attempt keeps no
// access set, enters no locator and is never helped or named as an enemy:
// only its own thread can hold a pointer to it, so all of a Thread's
// read-only attempts run in one record (a transaction nested in one gets its
// own), and the *Tx handed to fn is good only until fn returns. Commit
// builds nothing: whoever next touches an object whose writer committed
// promotes the tentative version in place — stamps the predecessor's upper
// bound and the version's own validFrom from the writer's commit time,
// trims, and publishes the locator embedded in the version — and an aborted
// writer's locator is replaced by the one embedded in the version it was
// acquired over. A declared read-only transaction never extends or
// validates, so every read is selected and range-checked on its own and
// nothing is logged. The one rule the layout obeys: a version
// outlives its writer, so apart from prev it points at nothing but itself;
// a pointer from a version into a Tx, or into another attempt's chunk,
// would keep the whole commit history reachable (TestHeapPlateau).
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
