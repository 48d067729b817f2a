// Recovery on boot: load the snapshot, then replay every segment's redo
// records above its watermark.
//
// A segment's image is its whole file: on Linux the file mapped read-only
// (image_linux.go), so replay reads the page cache in place and allocates no
// buffer; elsewhere one buffer read whole, reused for the next segment
// (image_other.go). The mapping is gone before the final segment is cut and
// before recovery returns, and no decoded value shares a byte with it. The
// image is replayed in two passes, in place:
//
//   - Pass 1, on the caller, walks the frame headers only: it finds where the
//     segment's frames end (at the end of the file, at an all-zero header, or
//     at a header whose length is implausible or runs past the file) and
//     marks the first frame of every chunk of replayChunk frames, doubling
//     the chunk whenever the marks would pass maxMarks.
//   - Pass 2 cuts the frames at marks into up to GOMAXPROCS contiguous runs,
//     one per worker, the caller replaying the first. A worker checks each
//     frame's CRC, decodes it with decodeRecord, skips seqs at or below
//     the snapshot watermark, checks that the seqs it applies are dense and
//     keeps the last value per cell in a cellTable: a slice indexed by cell
//     id, since ids are dense creation indices, and a map for the rare id at
//     or above denseCells. The workers are joined before the runs are merged
//     in log order, and each boundary is checked for density too.
//
// Commit records carry a dense sequence and the last write to a cell wins,
// so the merged state is the one a frame-by-frame replay reaches. The
// earliest failing frame by offset decides the outcome, and nothing past it
// is applied, so every refusal, every cut and its offset are the
// frame-by-frame replay's too (recover_test.go checks this against such a
// replay).
package durable

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/val"
)

// recovery is what a boot-time scan of a WAL directory yields.
type recovery struct {
	// values holds the recovered latest value per cell id (snapshot state
	// overlaid with every replayed redo record).
	values cellTable
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

// denseCells bounds the cell ids a cellTable keeps in a slice. Ids are the
// cells' creation indices, dense from 0, so the slice grows to the highest
// id written and no further. An id at or above the bound, which only a store
// of more cells or a CRC-valid but corrupt record writes, goes to a map: no
// record makes a table allocate more than denseCells slots (2.1 MiB).
const denseCells = 1 << 16

// cellTable is a last-value-per-cell-id table: slices indexed by id below
// denseCells, a map above.
type cellTable struct {
	vals []val.Value
	// set[id] tells a value written from none: the zero val.Value is a
	// boxed nil. A slice of its own, and not a field beside the value, keeps
	// a write to plain stores: a 40-byte slot would be assembled on the
	// stack and copied, and the copy stalls on store forwarding.
	set    []bool
	sparse map[uint64]val.Value
}

// put records v as the value of cell id. It checks both lengths, which are
// equal, so that the compiler drops the stores' bounds checks.
func (t *cellTable) put(id uint64, v val.Value) {
	if id < uint64(len(t.vals)) && id < uint64(len(t.set)) {
		t.vals[id], t.set[id] = v, true
		return
	}
	t.grow(id, v)
}

// grow is put for an id past the slices: it extends them to the power of two
// above id, so a table grows a logarithmic number of times, or puts an id at
// or above denseCells in the map.
func (t *cellTable) grow(id uint64, v val.Value) {
	if id >= denseCells {
		if t.sparse == nil {
			t.sparse = map[uint64]val.Value{}
		}
		t.sparse[id] = v
		return
	}
	n := 1<<bits.Len64(id) - len(t.vals)
	t.vals = append(t.vals, make([]val.Value, n)...)
	t.set = append(t.set, make([]bool, n)...)
	t.vals[id], t.set[id] = v, true
}

// get returns the value of cell id and whether the table has one.
func (t *cellTable) get(id uint64) (val.Value, bool) {
	if id < uint64(len(t.set)) {
		return t.vals[id], t.set[id]
	}
	v, ok := t.sparse[id]
	return v, ok
}

// merge puts every cell o has at o's value, and empties o, keeping its
// slices' room for the next segment.
func (t *cellTable) merge(o *cellTable) {
	for id, ok := range o.set {
		if ok {
			t.put(uint64(id), o.vals[id])
		}
	}
	for id, v := range o.sparse {
		t.put(id, v)
	}
	clear(o.vals)
	clear(o.set)
	clear(o.sparse)
}

// appendFrom appends an entry per cell with an id at or above from to
// entries, in id order.
func (t *cellTable) appendFrom(entries []entry, from uint64) []entry {
	for id := from; id < uint64(len(t.set)); id++ {
		if t.set[id] {
			entries = append(entries, entry{ID: id, V: t.vals[id]})
		}
	}
	n := len(entries)
	for id, v := range t.sparse {
		if id >= from {
			entries = append(entries, entry{ID: id, V: v})
		}
	}
	slices.SortFunc(entries[n:], func(a, b entry) int { return cmp.Compare(a.ID, b.ID) })
	return entries
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
	rec := &recovery{}
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
	for _, en := range entries {
		rec.values.put(en.ID, en.V)
	}
	return nil
}

// replayChunk is how many frames pass 1 groups under one mark at first: runs
// are cut at marks, so a segment is split into at most one run per
// replayChunk frames, and pass 1 keeps one offset per chunk rather than per
// frame. A segment of more than maxMarks chunks doubles its chunks, as often
// as it takes, and drops every other mark: its marks take a fixed 8 KiB, and
// every run still gets many chunks.
const (
	replayChunk = 16
	maxMarks    = 1024
)

// replayer is the scratch of one recovery, reused for every segment: the
// segment image (see load), where its chunks start, and the replay runs.
type replayer struct {
	image []byte
	marks []int
	runs  []replayRun
}

// replayRun is one worker's share of a segment: the frames in [from, to),
// the last value per cell they write, and the first frame that failed.
type replayRun struct {
	from, to int
	values   cellTable // every run's but the first, kept for the next segment
	writes   []entry   // decode scratch
	applied  uint64    // commits applied (seqs above the snapshot watermark)
	first    uint64    // seq of the first commit applied
	firstAt  int       // its offset
	last     uint64    // seq of the last commit applied
	err      error     // the first failure, at offset errAt; nothing after it is applied
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
	cut, err := rp.replayImage(data, seg.path, lastSegment, rec)
	if uerr := rp.unload(); err == nil {
		err = uerr
	}
	if err != nil || cut < 0 {
		return err
	}
	return cutTail(seg.path, cut)
}

// replayImage replays the segment image data, the file at path, into rec.
// It returns the offset the final segment must be cut at, or -1.
func (rp *replayer) replayImage(data []byte, path string, lastSegment bool, rec *recovery) (cut int, err error) {
	if len(data) < len(segmentMagic) || string(data[:len(segmentMagic)]) != segmentMagic {
		return -1, fmt.Errorf("durable: bad segment magic in %s", path)
	}

	// Pass 1: frame boundaries. Every chunk-th frame's offset is a mark; off
	// ends at the end of the last whole frame, and stop is why the walk ended
	// there before the end of the data, or nil.
	off := len(segmentMagic)
	if rp.marks == nil {
		rp.marks = make([]int, 0, maxMarks)
	}
	marks, chunk := rp.marks[:0], replayChunk
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
		if i%chunk == 0 && len(marks) == maxMarks {
			for j := range maxMarks / 2 {
				marks[j] = marks[2*j]
			}
			marks, chunk = marks[:maxMarks/2], 2*chunk
		}
		if i%chunk == 0 {
			marks = append(marks, off)
		}
		off += n
	}
	rp.marks = marks

	// Pass 2: verify, decode and apply the frames in runs, then merge the
	// runs in log order; the earliest failure by offset wins. The first run
	// applies straight into rec.values, and each other run into a table of
	// its own, which its worker grows.
	runs := rp.split(off)
	var wg sync.WaitGroup
	for k := 1; k < len(runs); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[k].replay(&runs[k].values, data, path, rec.snapSeq)
		}()
	}
	runs[0].replay(&rec.values, data, path, rec.snapSeq)
	wg.Wait()

	for k := range runs {
		r := &runs[k]
		if r.applied > 0 && r.first != rec.lastSeq+1 {
			return -1, gapError(path, r.firstAt, r.first, rec.lastSeq+1)
		}
		if k > 0 {
			rec.values.merge(&r.values)
		}
		if r.applied > 0 {
			rec.lastSeq = r.last
			rec.commits += r.applied
		}
		if r.err != nil {
			return endSegment(path, lastSegment, data, r.errAt, r.err, rec)
		}
	}
	if stop != nil {
		return endSegment(path, lastSegment, data, off, stop, rec)
	}
	return -1, nil
}

// read loads the segment file at path with load; unload releases it.
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
	data, err := rp.load(f, int(st.Size()))
	if err != nil {
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
			values: rp.runs[k].values,
			writes: rp.runs[k].writes,
		}
	}
	return rp.runs
}

// replay replays the run's frames in data into into: it stops at the first
// frame that fails its CRC, is malformed, or does not carry the seq after
// the last one the run applied. The runs sit side by side in one slice, so
// the loop keeps its state, the table included, in locals and stores it once
// at the end, not per frame.
func (r *replayRun) replay(into *cellTable, data []byte, path string, snapSeq uint64) {
	values := *into
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
			for i := range writes { // by index: an entry copied out stalls
				values.put(writes[i].ID, writes[i].V)
			}
			last = seq
			applied++
		}
		at += size
	}
	*into, r.writes = values, writes
	r.applied, r.first, r.firstAt, r.last, r.err, r.errAt = applied, first, firstAt, last, fail, failAt
}

func gapError(path string, at int, got, want uint64) error {
	return fmt.Errorf("durable: sequence gap in %s at offset %d: got seq %d, want %d", path, at, got, want)
}

// endSegment handles a replay of the segment image data that stopped at
// offset at for err. A torn frame (or zero header) in the final segment ends
// the log there: it counts the torn bytes past at into rec and returns at as
// the offset to cut the segment at. Anywhere else it is mid-log corruption;
// any other error is returned as it is.
func endSegment(path string, lastSegment bool, data []byte, at int, err error, rec *recovery) (cut int, _ error) {
	if !errors.Is(err, ErrTorn) {
		return -1, err
	}
	if !lastSegment {
		return -1, fmt.Errorf("durable: corrupt frame mid-log in %s at offset %d: %v", path, at, err)
	}
	rec.tornBytes = int64(dataEnd(data, at) - at)
	return at, nil
}

// cutTail ends the final segment at offset, the end of its last whole frame:
// it truncates the file there and syncs the cut, so that a later segment can
// never follow a tail that comes back.
func cutTail(path string, offset int) error {
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
