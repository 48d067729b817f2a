package durable

// Tests for preallocated segments: the active segment reserves SegmentBytes
// up front, sealed segments end at their data, and recovery reads a zero
// frame header in the final segment as the end of the log.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
)

// frameEnds returns where the magic and then each whole frame of a segment
// image end, in order. It stops at the first zero header, short frame or bad
// CRC, so its last entry is the end of the segment's data.
func frameEnds(data []byte) []int64 {
	ends := []int64{int64(len(segmentMagic))}
	for off := ends[0]; ; {
		if off+FrameHeaderLen <= int64(len(data)) && bytes.Equal(data[off:off+FrameHeaderLen], make([]byte, FrameHeaderLen)) {
			return ends
		}
		frame, _, err := ReadFrame(bytes.NewReader(data[off:]))
		if err != nil {
			return ends
		}
		off += int64(len(frame))
		ends = append(ends, off)
	}
}

// segmentImages reads every segment in dir, in log order.
func segmentImages(t *testing.T, dir string) [][]byte {
	t.Helper()
	segs, err := listSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	images := make([][]byte, len(segs))
	for i, seg := range segs {
		if images[i], err = os.ReadFile(seg.path); err != nil {
			t.Fatal(err)
		}
	}
	return images
}

// segmentFrames returns the frames of every segment in dir, in log order,
// each as the exact bytes on disk.
func segmentFrames(t *testing.T, dir string) [][]byte {
	t.Helper()
	var frames [][]byte
	for _, data := range segmentImages(t, dir) {
		ends := frameEnds(data)
		for i := 1; i < len(ends); i++ {
			frames = append(frames, data[ends[i-1]:ends[i]])
		}
	}
	return frames
}

// segmentSizes returns the file size of every segment in dir and where its
// data ends, in log order.
func segmentSizes(t *testing.T, dir string) (sizes, dataEnds []int64) {
	t.Helper()
	for _, data := range segmentImages(t, dir) {
		ends := frameEnds(data)
		sizes = append(sizes, int64(len(data)))
		dataEnds = append(dataEnds, ends[len(ends)-1])
	}
	return sizes, dataEnds
}

// preallocWorks reports whether this filesystem preallocates at all: where
// it does not, segments grow by append and there is no reservation to see.
func preallocWorks(t *testing.T) bool {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "probe"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := (osFile{f}).Preallocate(4096); err != nil {
		return false
	}
	st, err := f.Stat()
	return err == nil && st.Size() == 4096
}

// TestPreallocAbandonedLog is the kill -9 shape: committers are acknowledged,
// then the log is abandoned without Close, its active segment still holding
// the zero rest of its reservation. Recovery must restore every acknowledged
// commit, report no torn bytes and cut the segment to its data end; a second
// recovery finds the same log and cuts nothing.
func TestPreallocAbandonedLog(t *testing.T) {
	const segBytes = 1024
	reserved := preallocWorks(t)
	for _, policy := range []string{FsyncGroup, FsyncAlways} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			e := newTestEngine(t, "norec", dir, Options{Fsync: policy, SegmentBytes: segBytes})
			const workers, each = 4, 60
			cells := make([]engine.Cell, workers)
			for w := range cells {
				cells[w] = e.NewCell(0)
			}
			var acked [workers]int
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := e.Thread(w)
					for i := 1; i <= each; i++ {
						if err := th.Run(func(tx engine.Txn) error { return engine.Set(tx, cells[w], i) }); err != nil {
							t.Errorf("worker %d commit %d: %v", w, i, err)
							return
						}
						acked[w] = i
					}
				}()
			}
			wg.Wait()
			// Abandoned here: no WALClose, no Sync. The handle is released
			// only once the checks are done.
			t.Cleanup(func() { e.WALClose() })

			sizes, ends := segmentSizes(t, dir)
			if len(sizes) < 2 {
				t.Fatalf("%d segments, want a rotation at %d bytes", len(sizes), segBytes)
			}
			last := len(sizes) - 1
			for i := 0; i < last; i++ {
				if sizes[i] != ends[i] {
					t.Errorf("sealed segment %d: size %d, data end %d", i, sizes[i], ends[i])
				}
			}
			if reserved && sizes[last] < segBytes {
				t.Errorf("active segment: size %d, want the %d-byte reservation", sizes[last], segBytes)
			}

			rec, err := recoverDir(osFS{}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.tornBytes != 0 {
				t.Errorf("tornBytes = %d, want 0", rec.tornBytes)
			}
			if rec.commits != workers*each || rec.lastSeq != workers*each {
				t.Errorf("recovered %d commits through seq %d, want %d", rec.commits, rec.lastSeq, workers*each)
			}
			for w, c := range cells {
				if got := recoveredValue(rec, c.(*dcell).id); got != acked[w] {
					t.Errorf("worker %d: recovered %v, acknowledged %d", w, got, acked[w])
				}
			}
			cut, cutEnds := segmentSizes(t, dir)
			if got, want := cut[last], cutEnds[last]; got != want {
				t.Errorf("recovered active segment: size %d, data end %d", got, want)
			}

			rec2, err := recoverDir(osFS{}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec2.tornBytes != 0 || rec2.commits != rec.commits || rec2.lastSeq != rec.lastSeq {
				t.Errorf("second recovery: torn %d, %d commits through seq %d; want 0, %d through %d",
					rec2.tornBytes, rec2.commits, rec2.lastSeq, rec.commits, rec.lastSeq)
			}
			if again, _ := segmentSizes(t, dir); !slices.Equal(again, cut) {
				t.Errorf("second recovery changed segment sizes %v → %v", cut, again)
			}
		})
	}
}

// TestPreallocSealedSegmentsEndAtData: rotation cuts each sealed segment to
// its data end, and Close cuts the active one, so a cleanly closed log holds
// no reservation anywhere.
func TestPreallocSealedSegmentsEndAtData(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, logConfig{dir: dir, policy: FsyncGroup, segmentBytes: 512})
	for seq := uint64(1); seq <= 100; seq++ {
		if _, err := l.Commit(seq, testFrame(seq)); err != nil {
			t.Fatal(err)
		}
	}
	sizes, ends := segmentSizes(t, dir)
	if len(sizes) < 3 {
		t.Fatalf("%d segments, want rotations at 512 bytes", len(sizes))
	}
	for i := 0; i < len(sizes)-1; i++ {
		if sizes[i] != ends[i] {
			t.Errorf("after rotation, segment %d: size %d, data end %d", i, sizes[i], ends[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sizes, ends = segmentSizes(t, dir)
	for i := range sizes {
		if sizes[i] != ends[i] {
			t.Errorf("after Close, segment %d: size %d, data end %d", i, sizes[i], ends[i])
		}
	}
	if rec, err := recoverDir(osFS{}, dir); err != nil || rec.lastSeq != 100 || rec.tornBytes != 0 {
		t.Fatalf("recovery: %v", err)
	}
}

// TestPreallocZeroHeaderMidLog: a zero frame header ends the log only in the
// final segment. In a sealed segment — which rotation cut to its data end —
// it is corruption, whether it follows the data or replaces a frame.
func TestPreallocZeroHeaderMidLog(t *testing.T) {
	zeros := make([]byte, 64)
	plants := []struct {
		name  string
		plant func(path string) error
		// want is the last seq recovered once the planted segment is final,
		// torn the bytes it counts past it.
		want uint64
		torn int64
	}{
		{"after the data", func(path string) error {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.Write(zeros)
			return err
		}, 2, 0},
		{"over a frame", func(path string) error {
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.WriteAt(zeros[:FrameHeaderLen], int64(len(segmentMagic)))
			return err
		}, 1, int64(len(testFrame(2)))}, // the zeroed header, then the payload
	}
	for _, p := range plants {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			// segmentBytes = 1: every commit rotates, so each record lands
			// in its own segment.
			l := openTestLog(t, logConfig{dir: dir, policy: FsyncGroup, segmentBytes: 1})
			for seq := uint64(1); seq <= 3; seq++ {
				if _, err := l.Commit(seq, testFrame(seq)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := listSegments(osFS{}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) != 4 {
				t.Fatalf("%d segments, want 4", len(segs))
			}
			if err := p.plant(segs[1].path); err != nil {
				t.Fatal(err)
			}
			if _, err := recoverDir(osFS{}, dir); err == nil || !strings.Contains(err.Error(), "mid-log") {
				t.Fatalf("recoverDir = %v, want mid-log corruption error", err)
			}
			// The same zeros in the final segment end the log there.
			if err := os.Remove(segs[3].path); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(segs[2].path); err != nil {
				t.Fatal(err)
			}
			rec, err := recoverDir(osFS{}, dir)
			if err != nil {
				t.Fatalf("zeros in the final segment: %v", err)
			}
			if rec.lastSeq != p.want || rec.tornBytes != p.torn {
				t.Errorf("recovered through seq %d with %d torn bytes, want %d and %d", rec.lastSeq, rec.tornBytes, p.want, p.torn)
			}
		})
	}
}

// TestPreallocFailureFallsBack: when the reservation fails, segments grow by
// append as they did before preallocation existed. The same commits are
// acknowledged and recover to the same state, whether the log closes or is
// abandoned.
func TestPreallocFailureFallsBack(t *testing.T) {
	boom := errors.New("injected fallocate failure")
	type outcome struct {
		acked            uint64
		lastSeq, commits uint64
		tornBytes        int64
		cell0            any
	}
	run := func(t *testing.T, failing, abandon bool) outcome {
		dir := t.TempDir()
		var calls atomic.Int64
		fs := &testFS{fault: func(op *fsOp) error {
			if op.kind != opPrealloc {
				return nil
			}
			calls.Add(1)
			if failing {
				return boom
			}
			return nil
		}}
		l := openTestLog(t, logConfig{dir: dir, policy: FsyncGroup, segmentBytes: 1024, fs: fs})
		var ticket, acked atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					seq := ticket.Add(1)
					if seq > 200 {
						return
					}
					if _, err := l.Commit(seq, testFrame(seq)); err != nil {
						t.Errorf("commit %d: %v", seq, err)
						return
					}
					acked.Add(1)
				}
			}()
		}
		wg.Wait()
		if calls.Load() < 2 {
			t.Errorf("prealloc called %d times, want once per segment (≥ 2)", calls.Load())
		}
		if failing {
			sizes, ends := segmentSizes(t, dir)
			for i := range sizes {
				if sizes[i] != ends[i] {
					t.Errorf("unreserved segment %d: size %d, data end %d", i, sizes[i], ends[i])
				}
			}
		}
		if abandon {
			t.Cleanup(func() { l.Close() }) // only once the checks are done
		} else if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := recoverDir(osFS{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{acked.Load(), rec.lastSeq, rec.commits, rec.tornBytes, recoveredValue(rec, 0)}
	}
	for _, abandon := range []bool{false, true} {
		want := run(t, false, abandon)
		got := run(t, true, abandon)
		if got != want {
			t.Errorf("abandon=%v: failing preallocation gives %+v, working one %+v", abandon, got, want)
		}
		if got.acked != 200 || got.lastSeq != 200 || got.tornBytes != 0 {
			t.Errorf("abandon=%v: %+v, want 200 acked and recovered, 0 torn", abandon, got)
		}
	}
}
