// Redo-record and snapshot frame encoding for the write-ahead log.
//
// A log segment is the magic "DWAL0001" followed by frames. Every frame on
// disk is length-prefixed and CRC-framed:
//
//	[u32 len][u32 crc32(payload)][payload]
//
// both fixed fields little-endian, crc over the payload bytes only. The
// active segment is preallocated to Options.SegmentBytes, so past its last
// frame it holds zeros up to that size; a sealed segment (rotated away from,
// or closed) is cut to end at its last frame. Recovery therefore reads an
// all-zero frame header in the final segment as the end of the log, and in
// any other segment as corruption. No real frame has an empty payload, so a
// zero header is never a frame. The frame parser knows nothing of this rule:
// parseFrame, and ReadFrame, which reads one frame from a stream and hands
// it to parseFrame, are shared with the replication stream, and a stream has
// no reservation. Replay, the rule included, lives in recover.go.
//
// The payload's first byte is the record type: 'C' for a commit redo record,
// 'S' for a snapshot. A commit payload is
//
//	'C' | uvarint seq | uvarint nwrites | nwrites × (uvarint cellID, value)
//
// and a snapshot payload is
//
//	'S' | uvarint watermarkSeq | uvarint ncells | ncells × (uvarint cellID, value)
//
// Values carry a one-byte kind tag ahead of a kind-specific body; only
// WAL-serializable payloads are representable (the val numeric lane plus
// nil, bool, string, float64 and []byte, extended by registered codecs —
// see EncodableValue and RegisterCodec). The frame
// reader distinguishes three outcomes callers treat differently: a clean
// end of file, a torn frame (short read or CRC mismatch — recovery
// truncates it when it is the log's final frame), and a malformed payload
// inside a valid frame (always a hard error).
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/val"
)

const (
	recCommit   = 'C'
	recSnapshot = 'S'

	frameHeaderLen = 8
	// maxFrameLen bounds a frame header's length field; anything larger is
	// treated as a torn/corrupt frame rather than a giant allocation.
	maxFrameLen = 1 << 28
)

// Value kind tags on disk.
const (
	tagInt     = 'i' // Go int, varint body
	tagInt64   = 'I' // int64, varint body
	tagNil     = 'n' // no body
	tagFalse   = '0' // no body
	tagTrue    = '1' // no body
	tagString  = 's' // uvarint len + bytes
	tagFloat64 = 'f' // 8-byte little-endian IEEE 754 bits
	tagBytes   = 'y' // uvarint len + bytes
	tagCodec   = 'u' // uvarint len + codec name, uvarint len + codec body
)

// ErrUnsupportedPayload reports a transactional write whose payload the WAL
// cannot serialize. Durable engines reject such writes at Write time, before
// anything commits.
var ErrUnsupportedPayload = errors.New("durable: payload type not WAL-serializable")

// ErrTorn marks a frame that ends early or fails its CRC — recoverable by
// truncation when it is the final frame of the log, and the reconnect signal
// when a replication stream is cut mid-frame.
var ErrTorn = errors.New("durable: torn frame")

// EncodableValue reports whether v can be carried in a redo record: the
// numeric lane, a boxed nil, bool, string, float64 or []byte, or any type
// with a registered codec (see RegisterCodec).
func EncodableValue(v val.Value) bool {
	if v.IsNum() {
		return true
	}
	switch v.Load().(type) {
	case nil, bool, string, float64, []byte:
		return true
	}
	_, ok := codecFor(v.Load())
	return ok
}

// appendValue appends v's tagged encoding to b. It returns an error wrapping
// ErrUnsupportedPayload for payloads outside the serializable set.
func appendValue(b []byte, v val.Value) ([]byte, error) {
	if n, ok := v.AsInt64(); ok {
		if v.Kind() == val.KindInt {
			b = append(b, tagInt)
		} else {
			b = append(b, tagInt64)
		}
		return binary.AppendVarint(b, n), nil
	}
	switch x := v.Load().(type) {
	case nil:
		return append(b, tagNil), nil
	case bool:
		if x {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	case string:
		b = append(b, tagString)
		b = binary.AppendUvarint(b, uint64(len(x)))
		return append(b, x...), nil
	case float64:
		b = append(b, tagFloat64)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(x)), nil
	case []byte:
		b = append(b, tagBytes)
		b = binary.AppendUvarint(b, uint64(len(x)))
		return append(b, x...), nil
	default:
		c, ok := codecFor(x)
		if !ok {
			return b, fmt.Errorf("%w: %T", ErrUnsupportedPayload, x)
		}
		body, err := c.enc(x)
		if err != nil {
			return b, fmt.Errorf("durable: codec %q encode: %w", c.name, err)
		}
		b = append(b, tagCodec)
		b = binary.AppendUvarint(b, uint64(len(c.name)))
		b = append(b, c.name...)
		b = binary.AppendUvarint(b, uint64(len(body)))
		return append(b, body...), nil
	}
}

// decodeValue consumes one tagged value from b, returning it and the rest.
func decodeValue(b []byte) (val.Value, []byte, error) {
	if len(b) == 0 {
		return val.Value{}, nil, errors.New("durable: truncated value")
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagInt, tagInt64:
		n, w := binary.Varint(b)
		if w <= 0 {
			return val.Value{}, nil, errors.New("durable: bad varint value")
		}
		if tag == tagInt {
			return val.OfInt(int(n)), b[w:], nil
		}
		return val.OfInt64(n), b[w:], nil
	case tagNil:
		return val.OfAny(nil), b, nil
	case tagFalse:
		return val.OfAny(false), b, nil
	case tagTrue:
		return val.OfAny(true), b, nil
	case tagString, tagBytes:
		n, w := binary.Uvarint(b)
		if w <= 0 || uint64(len(b[w:])) < n {
			return val.Value{}, nil, errors.New("durable: truncated string/bytes value")
		}
		body := b[w : w+int(n)]
		if tag == tagString {
			return val.OfAny(string(body)), b[w+int(n):], nil
		}
		cp := make([]byte, n)
		copy(cp, body)
		return val.OfAny(cp), b[int(n)+w:], nil
	case tagFloat64:
		if len(b) < 8 {
			return val.Value{}, nil, errors.New("durable: truncated float64 value")
		}
		return val.OfAny(math.Float64frombits(binary.LittleEndian.Uint64(b))), b[8:], nil
	case tagCodec:
		n, w := binary.Uvarint(b)
		if w <= 0 || uint64(len(b[w:])) < n {
			return val.Value{}, nil, errors.New("durable: truncated codec name")
		}
		name := string(b[w : w+int(n)])
		b = b[w+int(n):]
		m, w := binary.Uvarint(b)
		if w <= 0 || uint64(len(b[w:])) < m {
			return val.Value{}, nil, errors.New("durable: truncated codec body")
		}
		c, ok := codecNamed(name)
		if !ok {
			return val.Value{}, nil, fmt.Errorf("durable: log carries codec %q this process never registered", name)
		}
		x, err := c.dec(b[w : w+int(m)])
		if err != nil {
			return val.Value{}, nil, fmt.Errorf("durable: codec %q decode: %w", name, err)
		}
		return val.OfAny(x), b[w+int(m):], nil
	default:
		return val.Value{}, nil, fmt.Errorf("durable: unknown value tag %q", tag)
	}
}

// Entry is one cell write inside a commit or snapshot, in program order
// (replay applies entries in order, so later writes to the same cell win,
// exactly as they did transactionally). It is exported as the unit of the
// replication feed: internal/replica ships and replays []Entry.
type Entry struct {
	ID uint64
	V  val.Value
}

// appendCommitPayload appends the 'C' payload for (seq, writes) to b.
func appendCommitPayload(b []byte, seq uint64, writes []Entry) ([]byte, error) {
	b = append(b, recCommit)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(len(writes)))
	var err error
	for _, w := range writes {
		b = binary.AppendUvarint(b, w.ID)
		if b, err = appendValue(b, w.V); err != nil {
			return b, err
		}
	}
	return b, nil
}

// DecodeCommitPayload parses a 'C' payload (type byte included).
func DecodeCommitPayload(b []byte) (seq uint64, writes []Entry, err error) {
	return decodeCommitInto(b, nil)
}

// decodeCommitInto is DecodeCommitPayload appending the writes to writes[:0]
// (replay reuses one slice for the whole log).
func decodeCommitInto(b []byte, writes []Entry) (uint64, []Entry, error) {
	if len(b) == 0 || b[0] != recCommit {
		return 0, nil, errors.New("durable: not a commit record")
	}
	b = b[1:]
	seq, w := binary.Uvarint(b)
	if w <= 0 {
		return 0, nil, errors.New("durable: bad commit seq")
	}
	b = b[w:]
	// Every write takes at least one byte: a larger count is corrupt, and
	// preallocating for it could exhaust memory.
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return 0, nil, errors.New("durable: bad commit write count")
	}
	b = b[w:]
	if writes == nil {
		writes = make([]Entry, 0, n)
	}
	writes = writes[:0]
	for i := uint64(0); i < n; i++ {
		id, w := binary.Uvarint(b)
		if w <= 0 {
			return 0, nil, errors.New("durable: bad commit cell id")
		}
		v, rest, err := decodeValue(b[w:])
		if err != nil {
			return 0, nil, err
		}
		b = rest
		writes = append(writes, Entry{ID: id, V: v})
	}
	if len(b) != 0 {
		return 0, nil, errors.New("durable: trailing bytes in commit record")
	}
	return seq, writes, nil
}

// appendSnapshotPayload appends the 'S' payload for a snapshot at watermark
// seq holding entries (sorted by caller for deterministic bytes).
func appendSnapshotPayload(b []byte, seq uint64, entries []Entry) ([]byte, error) {
	b = append(b, recSnapshot)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(len(entries)))
	var err error
	for _, e := range entries {
		b = binary.AppendUvarint(b, e.ID)
		if b, err = appendValue(b, e.V); err != nil {
			return b, err
		}
	}
	return b, nil
}

// DecodeSnapshotPayload parses an 'S' payload into the watermark and a
// cellID → value map.
func DecodeSnapshotPayload(b []byte) (seq uint64, values map[uint64]val.Value, err error) {
	if len(b) == 0 || b[0] != recSnapshot {
		return 0, nil, errors.New("durable: not a snapshot record")
	}
	b = b[1:]
	seq, w := binary.Uvarint(b)
	if w <= 0 {
		return 0, nil, errors.New("durable: bad snapshot watermark")
	}
	b = b[w:]
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return 0, nil, errors.New("durable: bad snapshot cell count")
	}
	b = b[w:]
	values = make(map[uint64]val.Value, n)
	for i := uint64(0); i < n; i++ {
		id, w := binary.Uvarint(b)
		if w <= 0 {
			return 0, nil, errors.New("durable: bad snapshot cell id")
		}
		var v val.Value
		v, b, err = decodeValue(b[w:])
		if err != nil {
			return 0, nil, err
		}
		values[id] = v
	}
	if len(b) != 0 {
		return 0, nil, errors.New("durable: trailing bytes in snapshot record")
	}
	return seq, values, nil
}

// frameAround prefixes payload (built at b[frameHeaderLen:]) with its length
// and CRC header in place. b must have been built by appending the payload
// after frameHeaderLen reserved bytes.
func frameAround(b []byte) []byte {
	payload := b[frameHeaderLen:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	return b
}

// ReadFrame reads one frame from r. It returns io.EOF at a clean end of
// input and an error wrapping ErrTorn for a short frame or CRC mismatch. The
// snapshot loader and the replication follower share it: the wire protocol
// ships the exact on-disk frame bytes. The frame it reads is checked by
// parseFrame, the parser recovery runs over a whole segment in memory.
func ReadFrame(r io.Reader) (payload []byte, frameLen int64, err error) {
	// The header goes through a slice (a local array would escape into the
	// Read call), which grows into the whole frame once its length is known;
	// its spare room holds a small frame, such as an ack, in one allocation.
	hdr := make([]byte, frameHeaderLen, 64)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("%w: short frame header: %v", ErrTorn, err)
	}
	n, err := payloadLen(hdr)
	if err != nil {
		return nil, 0, err
	}
	frame := append(hdr, make([]byte, n)...)
	if _, err := io.ReadFull(r, frame[frameHeaderLen:]); err != nil {
		return nil, 0, fmt.Errorf("%w: short frame payload: %v", ErrTorn, err)
	}
	payload, size, err := parseFrame(frame)
	return payload, int64(size), err
}

// payloadLen decodes the length field of the frame header hdr, which is an
// error wrapping ErrTorn when it exceeds maxFrameLen.
func payloadLen(hdr []byte) (int, error) {
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrameLen {
		return 0, fmt.Errorf("%w: implausible frame length %d", ErrTorn, n)
	}
	return int(n), nil
}

// frameLen returns the length, header included, of the frame at the start
// of b, from its header alone. It returns io.EOF for an empty b, and an
// error wrapping ErrTorn for a short header, an implausible length, or a
// frame that runs past the end of b.
func frameLen(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, io.EOF
	}
	if len(b) < frameHeaderLen {
		return 0, fmt.Errorf("%w: short frame header: %d of %d bytes", ErrTorn, len(b), frameHeaderLen)
	}
	n, err := payloadLen(b)
	if err != nil {
		return 0, err
	}
	if n > len(b)-frameHeaderLen {
		return 0, fmt.Errorf("%w: short frame payload: %d of %d bytes", ErrTorn, len(b)-frameHeaderLen, n)
	}
	return frameHeaderLen + n, nil
}

// parseFrame parses the frame at the start of b and checks its CRC. The
// payload it returns aliases b. Errors are frameLen's, or an error wrapping
// ErrTorn for a CRC mismatch.
func parseFrame(b []byte) (payload []byte, size int, err error) {
	size, err = frameLen(b)
	if err != nil {
		return nil, 0, err
	}
	payload = b[frameHeaderLen:size]
	if want, got := binary.LittleEndian.Uint32(b[4:8]), crc32.ChecksumIEEE(payload); got != want {
		return nil, 0, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrTorn, want, got)
	}
	return payload, size, nil
}
