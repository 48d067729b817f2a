// Recovery on boot: load the snapshot, then replay every segment's redo
// records above its watermark.
//
// A segment is read whole into one buffer, reused for the next, so recovery
// holds the largest segment in memory: SegmentBytes plus at most one frame.
// It is then replayed in two passes over that buffer, in place:
//
//   - Pass 1, on the caller, walks the frame headers only: it finds where the
//     segment's frames end (at the end of the file, at an all-zero header, or
//     at a header whose length is implausible or runs past the file) and
//     marks every replayChunk-th frame.
//   - Pass 2 cuts the frames at marks into up to GOMAXPROCS contiguous runs,
//     one per worker, the caller replaying the first. A worker checks each
//     frame's CRC, decodes it with decodeRecord, skips seqs at or below
//     the snapshot watermark, checks that the seqs it applies are dense and
//     keeps the last value per cell. The workers are joined before the runs
//     are merged in log order, and each boundary is checked for density too.
//
// Commit records carry a dense sequence and the last write to a cell wins,
// so the merged state is the one a frame-by-frame replay reaches. The
// earliest failing frame by offset decides the outcome, and nothing past it
// is applied, so every refusal, every cut and its offset are the
// frame-by-frame replay's too (recover_test.go checks this against such a
// replay).
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/val"
)

// recovery is what a boot-time scan of a WAL directory yields.
type recovery struct {
	// values holds the recovered cellID → latest value map (snapshot state
	// overlaid with every replayed redo record).
	values map[uint64]val.Value
	// lastSeq is the highest commit sequence restored (snapshot watermark
	// included); the reopened log starts at lastSeq+1.
	lastSeq uint64
	// commits counts redo records replayed (snapshot state excluded).
	commits uint64
	// snapSeq is the snapshot watermark boot started from (0 = none).
	snapSeq uint64
	// tornBytes is how many bytes of a torn final frame reached the disk:
	// from the end of the last whole frame up to the last non-zero byte
	// after it. The zeros of a preallocated segment's reservation, which
	// recovery truncates away as well, do not count, so a log abandoned
	// between frames reports 0; and a torn frame whose last written bytes
	// are zero cannot be told from the reservation, so they do not count
	// either.
	tornBytes int64
}

// segmentFile pairs a segment path with the first seq its name declares.
type segmentFile struct {
	path     string
	firstSeq uint64
}

func listSegments(dir string) ([]segmentFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentFile
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		hexSeq := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
		seq, err := strconv.ParseUint(hexSeq, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("durable: malformed segment name %q: %v", name, err)
		}
		segs = append(segs, segmentFile{path: filepath.Join(dir, name), firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// recoverDir scans a WAL directory: loads the snapshot (if any), replays
// every segment's redo records above the snapshot watermark in sequence
// order, truncates a torn final frame or a zero tail (reporting the torn
// bytes), and rejects mid-log corruption or sequence gaps as hard errors. A
// leftover snapshot.tmp from an interrupted compaction is deleted. An empty
// or absent directory recovers to the empty state.
func recoverDir(dir string) (*recovery, error) {
	rec := &recovery{values: map[uint64]val.Value{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// An interrupted compaction can leave snapshot.tmp behind (crash
	// between write and rename); it never became the live snapshot, so
	// drop it.
	if err := os.Remove(filepath.Join(dir, snapshotTmp)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err := loadSnapshot(dir, rec); err != nil {
		return nil, err
	}
	rec.lastSeq = rec.snapSeq

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var rp replayer
	for i, seg := range segs {
		last := i == len(segs)-1
		if err := rp.replaySegment(seg, last, rec); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

func loadSnapshot(dir string, rec *recovery) error {
	path := filepath.Join(dir, snapshotName)
	img, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(img) < len(snapshotMagic) || string(img[:len(snapshotMagic)]) != snapshotMagic {
		return fmt.Errorf("durable: bad snapshot magic in %s", path)
	}
	payload, _, err := parseFrame(img[len(snapshotMagic):])
	if err != nil {
		// The snapshot was written with write-tmp → fsync → rename, so a
		// torn snapshot means disk corruption, not a crash: refuse.
		return fmt.Errorf("durable: corrupt snapshot %s: %v", path, err)
	}
	kind, seq, entries, err := decodeRecord(payload, nil)
	if err == nil && kind != recSnapshot {
		err = errors.New("not a snapshot record")
	}
	if err != nil {
		return fmt.Errorf("durable: corrupt snapshot %s: %v", path, err)
	}
	rec.snapSeq = seq
	rec.values = make(map[uint64]val.Value, len(entries))
	for _, en := range entries {
		rec.values[en.ID] = en.V
	}
	return nil
}

// replayChunk is how many frames pass 1 groups under one mark: runs are cut
// at marks, so a segment is split into at most one run per replayChunk
// frames, and pass 1 keeps one offset per chunk rather than per frame.
const replayChunk = 16

// replayer is the scratch of one recovery, reused for every segment: the
// segment image, where its chunks start, and the replay runs.
type replayer struct {
	buf   []byte
	marks []int
	runs  []replayRun
}

// replayRun is one worker's share of a segment: the frames in [from, to),
// the last value per cell they write, and the first frame that failed.
type replayRun struct {
	from, to int
	values   map[uint64]val.Value
	writes   []entry // decode scratch
	applied  uint64  // commits applied (seqs above the snapshot watermark)
	first    uint64  // seq of the first commit applied
	firstAt  int     // its offset
	last     uint64  // seq of the last commit applied
	err      error   // the first failure, at offset errAt; nothing after it is applied
	errAt    int
}

// replaySegment applies seg's redo records above the snapshot watermark to
// rec. The final segment may end early: in a torn frame (a crash mid-append)
// or at an all-zero frame header (the unwritten rest of its preallocated
// reservation, or a frame whose bytes never reached the disk). No real frame
// has an empty payload, so a zero header is never data. Recovery truncates
// the final segment there, syncs the cut and stops: nothing past it was ever
// acknowledged. Every earlier segment was flushed, cut to its data end and
// synced at rotation, so a torn frame or zero header there is mid-log
// corruption and recovery refuses to guess past it. The zero-header rule
// lives here and not in parseFrame, which the replication stream shares.
func (rp *replayer) replaySegment(seg segmentFile, lastSegment bool, rec *recovery) error {
	data, err := rp.read(seg.path)
	if err != nil {
		return err
	}
	if len(data) < len(segmentMagic) || string(data[:len(segmentMagic)]) != segmentMagic {
		return fmt.Errorf("durable: bad segment magic in %s", seg.path)
	}

	// Pass 1: frame boundaries. Every replayChunk-th frame's offset is a
	// mark; off ends at the end of the last whole frame, and stop is why the
	// walk ended there before the end of the data, or nil.
	off := len(segmentMagic)
	marks := rp.marks[:0]
	var stop error
	for i := 0; off < len(data); i++ {
		if len(data)-off >= FrameHeaderLen && binary.LittleEndian.Uint64(data[off:]) == 0 {
			stop = fmt.Errorf("%w: zero frame header", ErrTorn)
			break
		}
		n, err := frameLen(data[off:])
		if err != nil {
			stop = err
			break
		}
		if i%replayChunk == 0 {
			marks = append(marks, off)
		}
		off += n
	}
	rp.marks = marks

	// Pass 2: verify, decode and apply the frames in runs, then merge the
	// runs in log order; the earliest failure by offset wins. Every commit
	// applied writes its map's header, so the first run applies straight
	// into rec.values and each other run fills a map its own worker makes:
	// maps made back to back by one goroutine sit side by side, and workers
	// writing neighbouring headers contend for their cache lines.
	runs := rp.split(off)
	var wg sync.WaitGroup
	for k := 1; k < len(runs); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[k].replay(map[uint64]val.Value{}, data, seg.path, rec.snapSeq)
		}()
	}
	runs[0].replay(rec.values, data, seg.path, rec.snapSeq)
	wg.Wait()

	for k := range runs {
		r := &runs[k]
		if r.applied > 0 && r.first != rec.lastSeq+1 {
			return gapError(seg.path, r.firstAt, r.first, rec.lastSeq+1)
		}
		if k > 0 {
			for id, v := range r.values {
				rec.values[id] = v
			}
		}
		if r.applied > 0 {
			rec.lastSeq = r.last
			rec.commits += r.applied
		}
		if r.err != nil {
			return endSegment(seg.path, lastSegment, data, r.errAt, r.err, rec)
		}
	}
	if stop != nil {
		return endSegment(seg.path, lastSegment, data, off, stop, rec)
	}
	return nil
}

// read loads the whole file at path into rp.buf, which keeps the largest
// segment's size for the next.
func (rp *replayer) read(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(st.Size())
	if cap(rp.buf) < size {
		rp.buf = make([]byte, size)
	}
	data := rp.buf[:size]
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("durable: read segment %s: %w", path, err)
	}
	return data, nil
}

// split resets rp.runs to one run per worker over the chunks rp.marks
// starts, whose frames end at end: as many runs as GOMAXPROCS, and no more
// than there are chunks (at least one, so the merge always has a run).
func (rp *replayer) split(end int) []replayRun {
	chunks := len(rp.marks)
	workers := max(1, min(runtime.GOMAXPROCS(0), chunks))
	if workers > cap(rp.runs) {
		rp.runs = make([]replayRun, workers)
	}
	rp.runs = rp.runs[:workers]
	// mark returns where chunk c starts, or end past the last chunk.
	mark := func(c int) int {
		if c < chunks {
			return rp.marks[c]
		}
		return end
	}
	for k := range rp.runs {
		rp.runs[k] = replayRun{
			from:   mark(k * chunks / workers),
			to:     mark((k + 1) * chunks / workers),
			writes: rp.runs[k].writes,
		}
	}
	return rp.runs
}

// replay replays the run's frames in data into values: it stops at the
// first frame that fails its CRC, is malformed, or does not carry the seq
// after the last one the run applied. The runs sit side by side in one
// slice, so the loop keeps its state in locals and stores it once at the
// end, not per frame.
func (r *replayRun) replay(values map[uint64]val.Value, data []byte, path string, snapSeq uint64) {
	writes := r.writes
	var applied, first, last uint64
	var firstAt, failAt int
	var fail error
	for at := r.from; at < r.to; {
		payload, size, err := parseFrame(data[at:r.to])
		if err != nil {
			fail, failAt = err, at
			break
		}
		var kind byte
		var seq uint64
		kind, seq, writes, err = decodeRecord(payload, writes)
		if err == nil && kind != recCommit {
			err = errors.New("durable: not a commit record")
		}
		if err != nil {
			// A CRC-valid frame with a malformed payload is corruption the
			// CRC cannot excuse — refuse even in the final segment.
			fail, failAt = fmt.Errorf("durable: malformed record in %s at offset %d: %v", path, at, err), at
			break
		}
		if seq > snapSeq {
			if applied == 0 {
				first, firstAt = seq, at
			} else if seq != last+1 {
				fail, failAt = gapError(path, at, seq, last+1), at
				break
			}
			for _, w := range writes {
				values[w.ID] = w.V
			}
			last = seq
			applied++
		}
		at += size
	}
	r.values, r.writes = values, writes
	r.applied, r.first, r.firstAt, r.last, r.err, r.errAt = applied, first, firstAt, last, fail, failAt
}

func gapError(path string, at int, got, want uint64) error {
	return fmt.Errorf("durable: sequence gap in %s at offset %d: got seq %d, want %d", path, at, got, want)
}

// endSegment handles a replay that stopped at offset at for err. A torn
// frame (or zero header) in the final segment ends the log there: cutTail.
// Anywhere else it is mid-log corruption; any other error is returned as it
// is.
func endSegment(path string, lastSegment bool, data []byte, at int, err error, rec *recovery) error {
	if !errors.Is(err, ErrTorn) {
		return err
	}
	if !lastSegment {
		return fmt.Errorf("durable: corrupt frame mid-log in %s at offset %d: %v", path, at, err)
	}
	return cutTail(path, data, at, rec)
}

// cutTail ends the final segment, whose bytes are data, at offset, the end of
// its last whole frame: it counts the torn bytes past offset into rec,
// truncates the file there and syncs the cut, so that a later segment can
// never follow a tail that comes back.
func cutTail(path string, data []byte, offset int, rec *recovery) error {
	rec.tornBytes = int64(dataEnd(data, offset) - offset)
	w, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := w.Truncate(int64(offset)); err != nil {
		w.Close()
		return err
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// dataEnd returns the offset just past the last non-zero byte of data at or
// after from, or from when there is none. A preallocated tail is zeros, so
// it is skipped a word at a time.
func dataEnd(data []byte, from int) int {
	end := len(data)
	for end-8 >= from && binary.LittleEndian.Uint64(data[end-8:]) == 0 {
		end -= 8
	}
	for ; end > from; end-- {
		if data[end-1] != 0 {
			return end
		}
	}
	return from
}
