// Built-in "ints" codec: []int payloads carried as uvarint count + varint
// deltas from the previous element. The hash-set workload stores each bucket
// as a sorted immutable []int, so this one registration makes that workload
// runnable on the durable engines (and replicable) where it would otherwise
// fail every write with ErrUnsupportedPayload; deltas over sorted keys stay
// small, so the encoding is compact. Unsorted slices still round-trip —
// deltas just go negative.
//
// Cell-graph payloads (the linked-list and skip-list workloads' nodes hold
// engine.Cell handles — process-local pointers) remain unsupported by
// design; see the package comment in codec.go.
package durable

import (
	"encoding/binary"
	"errors"
)

func init() {
	RegisterCodec("ints", []int(nil), encodeInts, decodeInts)
}

func encodeInts(x any) ([]byte, error) {
	keys := x.([]int)
	b := binary.AppendUvarint(nil, uint64(len(keys)))
	prev := 0
	for _, k := range keys {
		b = binary.AppendVarint(b, int64(k-prev))
		prev = k
	}
	return b, nil
}

func decodeInts(b []byte) (any, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) { // every delta takes at least a byte
		return nil, errors.New("durable: ints codec: bad count")
	}
	b = b[w:]
	keys := make([]int, 0, n)
	prev := 0
	for i := uint64(0); i < n; i++ {
		d, w := binary.Varint(b)
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
