// Record and frame encoding for the write-ahead log and the replication
// stream.
//
// A log segment is the magic "DWAL0001" followed by frames. Every frame on
// disk is length-prefixed and CRC-framed:
//
//	[u32 len][u32 crc32(payload)][payload]
//
// both fixed fields little-endian, crc over the payload bytes only: the IEEE
// CRC-32 of hash/crc32, which checksum computes with a slicing-by-8 table of
// its own below 64 bytes, the size of nearly every record. Frame is the one
// framer: the log, the snapshot file and every replication message
// (internal/replica's hello, ack and heartbeat as well as the records it
// ships) are framed by it, and a frame is framed once: the log journals a
// commit's frame as Frame or ReadFrame made it, and checks no CRC again.
//
// The active segment is preallocated to the segment size (4 MiB), so past its
// last frame it holds zeros up to that size; a sealed segment (rotated away
// from, or closed) is cut to end at its last frame. Recovery therefore reads
// an all-zero frame header in the final segment as the end of the log, and
// in any other segment as corruption. No real frame has an empty payload, so
// a zero header is never a frame. The frame parser knows nothing of this
// rule: parseFrame, and ReadFrame, which reads one frame from a stream and
// hands it to parseFrame, are shared with the replication stream, and a
// stream has no reservation. Replay, the rule included, lives in recover.go.
//
// The payload of a log or snapshot frame is a record, and a commit and a
// snapshot share one grammar:
//
//	kind | uvarint seq | uvarint n | n × (uvarint cellID, value)
//
// A commit ('C') carries its commit sequence and its writes in program
// order; a snapshot ('S') carries its watermark and every cell in id order.
// appendRecord encodes both kinds and decodeRecord decodes both.
//
// Values carry a one-byte kind tag ahead of a kind-specific body; only
// WAL-serializable payloads are representable: the val numeric lane plus
// nil, bool, string, float64, []byte and []int (see EncodableValue). A []int
// is the one named-codec value:
//
//	'u' | uvarint 4 | "ints" | uvarint len(body) | uvarint count | count × varint delta
//
// each delta taken from the previous element (the first from 0). A reader
// refuses any other codec name.
//
// A record has one encoding: writers emit shortest-form varints, and every
// varint read, on disk and on the wire, goes through Uvarint (or varint, its
// signed form), which refuses a zero-padded one as malformed. So a record
// that decodes re-encodes to its own bytes.
//
// The frame reader distinguishes three outcomes callers treat differently: a
// clean end of file, a torn frame (short read or CRC mismatch — recovery
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

	// FrameHeaderLen is the length of a frame's header: the payload's
	// length and CRC.
	FrameHeaderLen = 8
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

// intsCodec is the codec name a []int value carries.
const intsCodec = "ints"

// ErrUnsupportedPayload reports a transactional write whose payload the WAL
// cannot serialize. Durable engines reject such writes at Write time, before
// anything commits.
var ErrUnsupportedPayload = errors.New("durable: payload type not WAL-serializable")

// ErrTorn marks a frame that ends early or fails its CRC — recoverable by
// truncation when it is the final frame of the log, and the reconnect signal
// when a replication stream is cut mid-frame.
var ErrTorn = errors.New("durable: torn frame")

// Uvarint decodes the uvarint at the front of b and the bytes it took, the
// one varint reader of the log and the replication wire. w ≤ 0 flags a
// truncated, overflowing or zero-padded encoding: writers emit the shortest
// form only, so a padded one is malformed, not another spelling. A varint of
// one to three bytes, nearly every id, count, value and seq a record holds,
// is decoded without a loop; a last byte of zero is padding, which
// uvarintLong refuses.
func Uvarint(b []byte) (v uint64, w int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	if len(b) > 1 && b[1] < 0x80 && b[1] != 0 {
		return uint64(b[0]&0x7f) | uint64(b[1])<<7, 2
	}
	if len(b) > 2 && b[1] >= 0x80 && b[2] < 0x80 && b[2] != 0 {
		return uint64(b[0]&0x7f) | uint64(b[1]&0x7f)<<7 | uint64(b[2])<<14, 3
	}
	return uvarintLong(b)
}

// uvarintLong is Uvarint for any length.
func uvarintLong(b []byte) (v uint64, w int) {
	for i, c := range b {
		if c == 0 && i > 0 || i == binary.MaxVarintLen64-1 && c > 1 {
			return 0, 0 // padded, or past 64 bits
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// varint is Uvarint's signed form, the inverse of binary.AppendVarint.
func varint(b []byte) (int64, int) {
	u, w := Uvarint(b)
	return int64(u>>1) ^ -int64(u&1), w
}

// EncodableValue reports whether v can be carried in a redo record: the
// numeric lane, a boxed nil, bool, string, float64, []byte or []int.
func EncodableValue(v val.Value) bool {
	if v.IsNum() {
		return true
	}
	switch v.Load().(type) {
	case nil, bool, string, float64, []byte, []int:
		return true
	}
	return false
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
	case []int:
		body := appendInts(nil, x)
		b = append(b, tagCodec)
		b = binary.AppendUvarint(b, uint64(len(intsCodec)))
		b = append(b, intsCodec...)
		b = binary.AppendUvarint(b, uint64(len(body)))
		return append(b, body...), nil
	default:
		return b, fmt.Errorf("%w: %T", ErrUnsupportedPayload, x)
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
		n, w := varint(b)
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
		body, rest, ok := prefixed(b)
		if !ok {
			return val.Value{}, nil, errors.New("durable: malformed string/bytes length")
		}
		if tag == tagString {
			return val.OfAny(string(body)), rest, nil
		}
		return val.OfAny(append([]byte{}, body...)), rest, nil
	case tagFloat64:
		if len(b) < 8 {
			return val.Value{}, nil, errors.New("durable: truncated float64 value")
		}
		return val.OfAny(math.Float64frombits(binary.LittleEndian.Uint64(b))), b[8:], nil
	case tagCodec:
		name, rest, ok := prefixed(b)
		body, rest, ok2 := prefixed(rest)
		if !ok || !ok2 {
			return val.Value{}, nil, errors.New("durable: malformed codec value")
		}
		if string(name) != intsCodec {
			return val.Value{}, nil, fmt.Errorf("durable: log carries codec %q; only %q is known", name, intsCodec)
		}
		keys, err := decodeInts(body)
		if err != nil {
			return val.Value{}, nil, err
		}
		return val.OfAny(keys), rest, nil
	default:
		return val.Value{}, nil, fmt.Errorf("durable: unknown value tag %q", tag)
	}
}

// prefixed splits the uvarint-length-prefixed field at the front of b into
// its body and the rest of b; ok is false when the length is malformed or
// runs past the end of b.
func prefixed(b []byte) (body, rest []byte, ok bool) {
	n, w := Uvarint(b)
	if w <= 0 || uint64(len(b[w:])) < n {
		return nil, nil, false
	}
	return b[w : w+int(n)], b[w+int(n):], true
}

// appendInts appends the body of a []int value: the count, then each
// element's delta from the one before. The hash-set workload stores each
// bucket as a sorted []int, so the deltas stay small; an unsorted slice
// still round-trips, its deltas going negative.
func appendInts(b []byte, keys []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(keys)))
	prev := 0
	for _, k := range keys {
		b = binary.AppendVarint(b, int64(k-prev))
		prev = k
	}
	return b
}

// decodeInts inverts appendInts.
func decodeInts(b []byte) ([]int, error) {
	n, w := Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) { // every delta takes at least a byte
		return nil, errors.New("durable: ints codec: bad count")
	}
	b = b[w:]
	keys := make([]int, 0, n)
	prev := 0
	for i := uint64(0); i < n; i++ {
		d, w := varint(b)
		if w <= 0 {
			return nil, errors.New("durable: ints codec: truncated delta")
		}
		b = b[w:]
		prev += int(d)
		keys = append(keys, prev)
	}
	if len(b) != 0 {
		return nil, errors.New("durable: ints codec: trailing bytes")
	}
	return keys, nil
}

// entry is one cell write inside a commit, in program order (replay applies
// entries in order, so later writes to the same cell win, exactly as they
// did transactionally), or one cell of a snapshot, in id order. It never
// leaves the package: replication ships and journals a record's frame bytes,
// and only Engine.ApplyReplicated decodes them into entries.
type entry struct {
	ID uint64
	V  val.Value
}

// appendRecord appends the record of the given kind (recCommit or
// recSnapshot) at seq holding entries to b.
func appendRecord(b []byte, kind byte, seq uint64, entries []entry) ([]byte, error) {
	b = append(b, kind)
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

// decodeRecord parses a commit or snapshot record (kind byte included) and
// returns its kind, its seq and its entries, appended to entries[:0] so that
// a caller decoding many records reuses one slice (nil makes one of the
// record's size). The decoded values share no bytes with b. A record it
// accepts is the one appendRecord writes for what it returns, byte for byte.
func decodeRecord(b []byte, entries []entry) (kind byte, seq uint64, _ []entry, err error) {
	if len(b) == 0 || (b[0] != recCommit && b[0] != recSnapshot) {
		return 0, 0, nil, errors.New("durable: not a commit or snapshot record")
	}
	kind, b = b[0], b[1:]
	seq, w := Uvarint(b)
	if w <= 0 {
		return 0, 0, nil, errors.New("durable: bad record seq")
	}
	b = b[w:]
	// Every entry takes at least one byte: a larger count is corrupt, and
	// preallocating for it could exhaust memory.
	n, w := Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return 0, 0, nil, errors.New("durable: bad record entry count")
	}
	b = b[w:]
	if entries == nil {
		entries = make([]entry, 0, n)
	}
	entries = entries[:0]
	for i := uint64(0); i < n; i++ {
		id, w := Uvarint(b)
		if w <= 0 {
			return 0, 0, nil, errors.New("durable: bad record cell id")
		}
		b = b[w:]
		var v val.Value
		if len(b) > 1 && (b[0] == tagInt || b[0] == tagInt64) {
			// The int lane, most of what a log holds, decoded in line;
			// decodeValue does the same for these tags.
			x, w := varint(b[1:])
			if w <= 0 {
				return 0, 0, nil, errors.New("durable: bad varint value")
			}
			if b[0] == tagInt {
				v = val.OfInt(int(x))
			} else {
				v = val.OfInt64(x)
			}
			b = b[1+w:]
		} else if v, b, err = decodeValue(b); err != nil {
			return 0, 0, nil, err
		}
		// The entry is stored a field at a time: a composite literal of its
		// size is assembled on the stack by narrow stores and copied out by
		// wide loads, which stall on store forwarding.
		if len(entries) < cap(entries) {
			entries = entries[:len(entries)+1]
		} else {
			entries = append(entries, entry{})
		}
		en := &entries[len(entries)-1]
		en.ID, en.V = id, v
	}
	if len(b) != 0 {
		return 0, 0, nil, errors.New("durable: trailing bytes in record")
	}
	return kind, seq, entries, nil
}

// Frame fills in the header of the frame b, which is FrameHeaderLen
// reserved bytes followed by the payload, and returns b.
func Frame(b []byte) []byte {
	payload := b[FrameHeaderLen:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], checksum(payload))
	return b
}

// ReadFrame reads one frame from r into a buffer of its own and returns it,
// header included, and its payload, which aliases it. It returns io.EOF at
// a clean end of input and an error wrapping ErrTorn for a short frame or
// CRC mismatch. The snapshot loader and the replication follower share it:
// the wire protocol ships the exact on-disk frame bytes, and a follower
// journals the frame it read as it is. The frame is checked by parseFrame,
// the parser recovery runs over a whole segment in memory.
func ReadFrame(r io.Reader) (frame, payload []byte, err error) {
	// The header goes through a slice (a local array would escape into the
	// Read call), which grows into the whole frame once its length is known;
	// its spare room holds a small frame, such as an ack, in one allocation.
	hdr := make([]byte, FrameHeaderLen, 64)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, nil, io.EOF
		}
		return nil, nil, fmt.Errorf("%w: short frame header: %v", ErrTorn, err)
	}
	n, err := payloadLen(hdr)
	if err != nil {
		return nil, nil, err
	}
	frame = append(hdr, make([]byte, n)...)
	if _, err := io.ReadFull(r, frame[FrameHeaderLen:]); err != nil {
		return nil, nil, fmt.Errorf("%w: short frame payload: %v", ErrTorn, err)
	}
	if payload, _, err = parseFrame(frame); err != nil {
		return nil, nil, err
	}
	return frame, payload, nil
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
	if len(b) < FrameHeaderLen {
		return 0, fmt.Errorf("%w: short frame header: %d of %d bytes", ErrTorn, len(b), FrameHeaderLen)
	}
	n, err := payloadLen(b)
	if err != nil {
		return 0, err
	}
	if n > len(b)-FrameHeaderLen {
		return 0, fmt.Errorf("%w: short frame payload: %d of %d bytes", ErrTorn, len(b)-FrameHeaderLen, n)
	}
	return FrameHeaderLen + n, nil
}

// parseFrame parses the frame at the start of b and checks its CRC. The
// payload it returns aliases b. Errors are frameLen's, or an error wrapping
// ErrTorn for a CRC mismatch.
func parseFrame(b []byte) (payload []byte, size int, err error) {
	size, err = frameLen(b)
	if err != nil {
		return nil, 0, err
	}
	payload = b[FrameHeaderLen:size]
	if want, got := binary.LittleEndian.Uint32(b[4:8]), checksum(payload); got != want {
		return nil, 0, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrTorn, want, got)
	}
	return payload, size, nil
}

// crcShort is the payload length below which checksum runs its own loop. A
// log record is 10–30 bytes, and hash/crc32 takes those a byte at a time:
// its slicing-by-8 loop starts at 16 bytes and its CLMUL path at 64.
const crcShort = 64

// crcTable is the slicing-by-8 table of the IEEE polynomial (Kounavis and
// Berry, ISCC 2005): crcTable[0] is the byte-at-a-time table, and
// crcTable[k][b] the CRC of byte b followed by k zero bytes. So k ≤ 8 bytes
// fold into the CRC in one step: xor them into its low bytes, and the CRC is
// the xor of what is left above them with crcTable[k-1-j][byte j], j < k.
var crcTable = func() (t [8][256]uint32) {
	t[0] = *crc32.MakeTable(crc32.IEEE)
	for b := range 256 {
		c := t[0][b]
		for k := 1; k < 8; k++ {
			c = t[0][byte(c)] ^ c>>8
			t[k][b] = c
		}
	}
	return t
}()

// checksum is crc32.ChecksumIEEE(p), the CRC of a frame's payload: below
// crcShort bytes eight bytes per table step, then the rest in at most two
// steps, of four bytes and of one to three.
func checksum(p []byte) uint32 {
	if len(p) >= crcShort {
		return crc32.ChecksumIEEE(p)
	}
	t := &crcTable
	crc := ^uint32(0)
	for ; len(p) >= 8; p = p[8:] {
		crc ^= binary.LittleEndian.Uint32(p)
		crc = t[0][p[7]] ^ t[1][p[6]] ^ t[2][p[5]] ^ t[3][p[4]] ^
			t[4][byte(crc>>24)] ^ t[5][byte(crc>>16)] ^ t[6][byte(crc>>8)] ^ t[7][byte(crc)]
	}
	if len(p) >= 4 {
		crc ^= binary.LittleEndian.Uint32(p)
		crc = t[0][byte(crc>>24)] ^ t[1][byte(crc>>16)] ^ t[2][byte(crc>>8)] ^ t[3][byte(crc)]
		p = p[4:]
	}
	switch len(p) {
	case 3:
		crc ^= uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16
		crc = crc>>24 ^ t[0][byte(crc>>16)] ^ t[1][byte(crc>>8)] ^ t[2][byte(crc)]
	case 2:
		crc ^= uint32(p[0]) | uint32(p[1])<<8
		crc = crc>>16 ^ t[0][byte(crc>>8)] ^ t[1][byte(crc)]
	case 1:
		crc = crc>>8 ^ t[0][byte(crc)^p[0]]
	}
	return ^crc
}
