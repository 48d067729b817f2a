// The segmented write-ahead log: ordered appends, fsync policies and segment
// rotation, every file operation through the file seam (fs.go). The
// recovery-on-boot scan is in recover.go.
package durable

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
)

// Fsync policy names, as accepted by engine.Options.Fsync and reported by
// DurabilityInfo.FsyncPolicy.
const (
	FsyncAlways = "always"
	FsyncGroup  = "group"
	FsyncNever  = "never"
)

const (
	segmentMagic  = "DWAL0001"
	snapshotMagic = "DSNAP001"
	snapshotName  = "snapshot"
	snapshotTmp   = "snapshot.tmp"
	segmentPrefix = "wal-"
	segmentSuffix = ".log"

	// defaultSegmentBytes rotates segments at 4 MiB; tests shrink it to
	// force rotation with tiny workloads.
	defaultSegmentBytes = 4 << 20
)

// ErrClosed reports use after an orderly WALClose.
var ErrClosed = errors.New("durable: write-ahead log closed")

// logConfig parameterizes openLog.
type logConfig struct {
	dir          string
	policy       string // FsyncAlways | FsyncGroup | FsyncNever
	segmentBytes int64
	startSeq     uint64     // first seq this log will accept (recovered lastSeq+1)
	fs           fileSystem // every file operation of the log
}

// Log is the append side of the WAL. Commit acknowledgments respect the
// fsync policy: under "always" and "group" a Commit that returns nil has
// been fsynced; under "never" it has only been buffered.
//
// Group commit is leader/follower: a committer whose record is not yet
// synced and that finds no fsync in flight flushes everything appended so far
// itself, with l.mu released; commits arriving meanwhile keep appending and
// form the next batch. Batch size thus follows fsync latency × arrival rate,
// and a lone committer waits for exactly one fsync.
//
// Appends are sequenced: Commit(seq, …) blocks until every lower seq has
// been appended, so the on-disk log is always a dense prefix of the commit
// order — recovery can treat a sequence gap as corruption.
type Log struct {
	cfg logConfig

	mu        sync.Mutex
	seqCond   *sync.Cond // append turnstile: waits for nextSeq == seq
	flushCond *sync.Cond // signalled when flushedSeq advances or flushing clears

	f           file
	buf         *bufio.Writer
	segSize     int64  // bytes written into the current segment
	nextSeq     uint64 // seq the next append must carry
	appendedSeq uint64 // highest seq written into buf
	flushedSeq  uint64 // highest seq known flushed+synced (tracked under group/always)
	// flushing: a group leader is fsyncing l.f with l.mu released. Appends
	// proceed; whatever closes, replaces or itself syncs l.f first awaitFlush.
	flushing bool
	fsyncs   uint64 // data fsyncs that advanced flushedSeq
	synced   uint64 // commits those fsyncs made durable: synced/fsyncs = batch size
	sticky   error  // the first I/O error, wrapped; wedges the log
	closed   bool
	// closing: Close is waiting out the flush in flight. No committer leads
	// another, or a steady stream of them could keep Close waiting for good;
	// Close's own sync covers what they appended.
	closing bool
	// tap, when set, observes every appended frame in seq order (the
	// replication feed). Called with l.mu held, immediately after the
	// append; the frame bytes are only valid during the call. The tap must
	// never block and never touch the Log.
	tap func(seq uint64, frame []byte)
}

func openLog(cfg logConfig) (*Log, error) {
	if cfg.segmentBytes <= 0 {
		cfg.segmentBytes = defaultSegmentBytes
	}
	switch cfg.policy {
	case FsyncAlways, FsyncGroup, FsyncNever:
	case "":
		cfg.policy = FsyncGroup
	default:
		return nil, fmt.Errorf("durable: unknown fsync policy %q", cfg.policy)
	}
	l := &Log{
		cfg:         cfg,
		nextSeq:     cfg.startSeq,
		appendedSeq: cfg.startSeq - 1,
		flushedSeq:  cfg.startSeq - 1,
	}
	l.seqCond = sync.NewCond(&l.mu)
	l.flushCond = sync.NewCond(&l.mu)
	if err := l.openSegment(cfg.startSeq); err != nil {
		return nil, err
	}
	return l, nil
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segmentPrefix, firstSeq, segmentSuffix)
}

// openSegment seals the current segment (if any) and starts a fresh one
// whose name records the first seq it will hold. Sealed segments are always
// flushed, cut to their data end and synced, whatever the policy — so only
// the final segment of a log can ever be torn or end in zeros. The fresh
// segment is preallocated to segmentBytes, so that an fsync of appends
// within the reservation flushes data and no new file size. Preallocation
// is best-effort: where it fails, the segment grows by append. Called with
// l.mu held and no group flush in flight (or before the Log is shared).
func (l *Log) openSegment(firstSeq uint64) error {
	if l.f != nil {
		if err := l.seal(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
	}
	path := filepath.Join(l.cfg.dir, segmentName(firstSeq))
	// The name can pre-exist only if that segment held zero records (boot
	// reuses firstSeq = lastSeq+1, which lands inside an old segment only
	// when the old segment is empty), so truncating is safe.
	f, err := l.cfg.fs.Create(path)
	if err != nil {
		return err
	}
	// A failed reservation leaves a segment that grows by append: slower
	// fsyncs, the same log.
	_ = f.Preallocate(l.cfg.segmentBytes)
	_, err = io.WriteString(f, segmentMagic)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = l.cfg.fs.SyncDir(l.cfg.dir)
	}
	if err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.buf = bufio.NewWriterSize(f, 1<<16)
	l.segSize = int64(len(segmentMagic))
	return nil
}

// fail wedges the log with err and wakes every waiter. Called with l.mu held.
func (l *Log) fail(err error) {
	if l.sticky == nil {
		l.sticky = err
	}
	l.seqCond.Broadcast()
	l.flushCond.Broadcast()
}

// wedge is fail for a caller not holding l.mu; it returns err.
func (l *Log) wedge(err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fail(err)
	return err
}

// Err returns the sticky I/O error, or nil. Once it is set, memory may
// be ahead of the disk: the engine refuses every transaction, and recovery
// is a fresh Wrap over the same directory.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sticky
}

// usable reports why a new update transaction must be refused: the sticky
// I/O error, ErrClosed after an orderly close, or nil.
func (l *Log) usable() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sticky != nil {
		return l.sticky
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// Commit appends the redo frame for seq, as Frame or ReadFrame made it: the
// log journals it as it is and checks nothing, so a record is framed, and
// its CRC computed, once. It blocks per the fsync policy until the record is
// acknowledged durable, and returns the frame length appended (the
// compaction trigger's byte feed).
func (l *Log) Commit(seq uint64, frame []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.sticky == nil && !l.closed && l.nextSeq != seq {
		l.seqCond.Wait()
	}
	if l.sticky != nil {
		return 0, l.sticky
	}
	if l.closed {
		return 0, ErrClosed
	}

	if _, err := l.buf.Write(frame); err != nil {
		l.fail(fmt.Errorf("durable: append: %w", err))
		return 0, l.sticky
	}
	l.segSize += int64(len(frame))
	l.appendedSeq = seq
	l.nextSeq = seq + 1
	if l.tap != nil {
		// Under l.mu, so the tap sees frames strictly in seq order — the
		// property the replication stream inherits from the sequencer.
		l.tap(seq, frame)
	}
	l.seqCond.Broadcast()

	switch l.cfg.policy {
	case FsyncAlways:
		if err := l.syncAppended(); err != nil {
			l.fail(err)
			return 0, l.sticky
		}
	case FsyncNever:
		// Acknowledge immediately; acknowledged commits can be lost.
	case FsyncGroup:
		for l.sticky == nil && !l.closed && l.flushedSeq < seq {
			if l.flushing || l.closing {
				l.flushCond.Wait()
			} else {
				l.flushBatch()
			}
		}
		if l.sticky != nil {
			return 0, l.sticky
		}
		if l.flushedSeq < seq {
			return 0, ErrClosed // closed before any fsync covered this record
		}
	}

	if l.segSize >= l.cfg.segmentBytes {
		// Waiting releases l.mu: by the time the flush in flight is over
		// another committer may have rotated, or the log been closed or wedged.
		l.awaitFlush()
		if l.segSize >= l.cfg.segmentBytes && l.sticky == nil && !l.closed {
			if err := l.openSegment(l.nextSeq); err != nil {
				l.fail(fmt.Errorf("durable: segment rotation: %w", err))
				return 0, l.sticky
			}
		}
	}
	return int64(len(frame)), nil
}

// flushBatch makes the calling committer the group leader: everything
// appended so far is its batch, fsynced with l.mu released so later commits
// keep appending. A failed fsync wedges the log: nobody in the batch is
// acknowledged and nobody retries. Called with l.mu held and no flush in
// flight; returns with l.mu held.
func (l *Log) flushBatch() {
	target := l.appendedSeq
	if err := l.buf.Flush(); err != nil {
		l.fail(fmt.Errorf("durable: flush: %w", err))
		return
	}
	f := l.f
	l.flushing = true
	l.mu.Unlock()
	err := f.Sync()
	l.mu.Lock()
	l.flushing = false
	if err != nil {
		l.fail(fmt.Errorf("durable: group fsync: %w", err))
		return
	}
	l.markSynced(target)
}

// awaitFlush waits out a group flush in flight. Called with l.mu held, which
// it releases while waiting: re-check sticky and closed afterwards.
func (l *Log) awaitFlush() {
	for l.flushing {
		l.flushCond.Wait()
	}
}

// seal is syncAppended for a segment that takes no more appends: between the
// flush and the fsync it cuts the file to its data end, so that what is left
// of the preallocated reservation never reaches a sealed segment. Called with
// l.mu held (and kept) and no group flush in flight.
func (l *Log) seal() error {
	if err := l.buf.Flush(); err != nil {
		return fmt.Errorf("durable: flush: %w", err)
	}
	if err := l.f.Truncate(l.segSize); err != nil {
		return fmt.Errorf("durable: trim segment: %w", err)
	}
	return l.syncAppended()
}

// syncAppended flushes and fsyncs everything appended so far and publishes
// it as durable. Called with l.mu held (and kept) and no group flush in
// flight.
func (l *Log) syncAppended() error {
	if err := l.buf.Flush(); err != nil {
		return fmt.Errorf("durable: flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	l.markSynced(l.appendedSeq)
	return nil
}

// markSynced records that an fsync covered every seq ≤ target and wakes the
// committers waiting for it. Called with l.mu held.
func (l *Log) markSynced(target uint64) {
	l.fsyncs++
	l.synced += target - l.flushedSeq
	l.flushedSeq = target
	l.flushCond.Broadcast()
}

// setTap installs (or clears, with nil) the append observer. Install it
// before commits flow; replacing a live tap is racy only in the sense that
// an in-flight Commit uses whichever tap it observes under l.mu.
func (l *Log) setTap(tap func(seq uint64, frame []byte)) {
	l.mu.Lock()
	l.tap = tap
	l.mu.Unlock()
}

// AppendedSeq returns the highest sequence number appended so far.
func (l *Log) AppendedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendedSeq
}

// skipTo advances the sequencer to firstSeq, rotating to a fresh segment
// named for it, so the next Commit must carry exactly firstSeq. It is the
// follower-side half of snapshot installation: after a replica snapshot at
// watermark W is on disk, the log resumes at W+1 with no on-disk gap (the
// rotation starts a new segment whose name declares the jump; records at or
// below W in older segments are covered by the snapshot). Refuses to move
// backwards.
func (l *Log) skipTo(firstSeq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitFlush()
	if l.sticky != nil {
		return l.sticky
	}
	if l.closed {
		return ErrClosed
	}
	if firstSeq < l.nextSeq {
		return fmt.Errorf("durable: skipTo %d would regress the sequencer (next %d)", firstSeq, l.nextSeq)
	}
	if firstSeq == l.nextSeq {
		return nil
	}
	if err := l.openSegment(firstSeq); err != nil {
		l.fail(fmt.Errorf("durable: skipTo rotation: %w", err))
		return l.sticky
	}
	l.nextSeq = firstSeq
	l.appendedSeq = firstSeq - 1
	l.flushedSeq = firstSeq - 1
	l.seqCond.Broadcast()
	l.flushCond.Broadcast()
	return nil
}

// Sync forces everything appended so far to stable storage, regardless of
// policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitFlush()
	if l.sticky != nil {
		return l.sticky
	}
	if l.closed {
		return nil // Close already flushed and synced
	}
	if err := l.syncAppended(); err != nil {
		l.fail(err)
		return l.sticky
	}
	return nil
}

// Close flushes the log, cuts the active segment to its data end (dropping
// the rest of its preallocated reservation), syncs and closes it. Idempotent;
// subsequent Commits fail with ErrClosed. Close waits out a group flush in
// flight, and from then on no committer leads another. If the final flush, cut or fsync
// fails the log is wedged instead, so no committer still waiting is
// acknowledged for a record that never reached the disk. A wedged log is
// closed as it stands, zero tail included, as a crash would leave it.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closing = true
	l.awaitFlush()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.sticky == nil {
		if err = l.seal(); err != nil {
			l.fail(err)
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.seqCond.Broadcast()
	l.flushCond.Broadcast()
	return err
}
