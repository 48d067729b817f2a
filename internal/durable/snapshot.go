// Snapshot writing and log compaction: the snapshot file replaces every
// redo record at or below its watermark, so old segments can be deleted and
// recovery replays snapshot-then-tail instead of the full history.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteSnapshot atomically installs frame, a framed snapshot record at
// watermark seq as snapshotFrame builds it, and deletes every segment the
// watermark fully covers. The install is write-tmp → fsync → rename →
// fsync-dir, so a crash leaves either the old snapshot or the new one, never
// a torn one; a crash between rename and segment deletion leaves stale
// segments whose records recovery then skips (they are ≤ the watermark).
// Concurrent appends are safe: only segments strictly older than the active
// one are ever deleted.
func (l *Log) WriteSnapshot(seq uint64, frame []byte) error {
	if err := l.Err(); err != nil {
		return err
	}

	tmp := filepath.Join(l.cfg.dir, snapshotTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.WriteString(snapshotMagic)
	if err == nil {
		_, err = f.Write(frame)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: snapshot write: %w", err)
	}

	if l.cfg.crash.fire(CrashMidSnapshotRename) {
		// Crash between writing snapshot.tmp and the rename: the tmp file
		// is left behind for boot to ignore and clean up.
		return l.wedge(ErrCrashed)
	}

	if err := os.Rename(tmp, filepath.Join(l.cfg.dir, snapshotName)); err != nil {
		return err
	}
	if err := syncDir(l.cfg.dir); err != nil {
		return err
	}

	if l.cfg.crash.fire(CrashAfterSnapshotRename) {
		// Crash between the rename and old-segment truncation: the new
		// snapshot is live, the covered segments linger; boot skips their
		// records (all ≤ the watermark).
		return l.wedge(ErrCrashed)
	}

	return l.truncateCovered(seq)
}

// truncateCovered deletes every segment all of whose records the snapshot
// watermark covers: segment i is disposable when the next segment starts at
// or below watermark+1 (so every seq in segment i is ≤ watermark). The last
// segment (the active one) never has a successor and is never deleted, so
// this cannot race the appender — nor a group flush in flight, which always
// has the active segment open: rotation waits for it before switching files.
func (l *Log) truncateCovered(watermark uint64) error {
	segs, err := listSegments(l.cfg.dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].firstSeq <= watermark+1 {
			if err := os.Remove(segs[i].path); err != nil {
				return err
			}
		}
	}
	return syncDir(l.cfg.dir)
}

// snapshotFrame is the framed snapshot record of entries, in cell-id order,
// at watermark seq: the bytes the snapshot file holds after its magic, and
// the bytes a replication primary ships a follower, which writes them to its
// own snapshot file as they came.
func snapshotFrame(seq uint64, entries []entry) ([]byte, error) {
	b := make([]byte, FrameHeaderLen, FrameHeaderLen+64+16*len(entries))
	b, err := appendRecord(b, recSnapshot, seq, entries)
	if err != nil {
		return nil, err
	}
	return Frame(b), nil
}
