// Package replica turns the durable WAL into a log-shipping replication
// layer: a Primary taps every journaled commit frame and streams it to N
// followers, each a Follower replaying the records into its own durable
// store and acknowledging an applied-seq watermark back.
//
// # Wire protocol
//
// Every message travels in the WAL's own frame format —
//
//	[u32 len][u32 crc32(payload)][payload]
//
// both fixed fields little-endian — so replicated commit and snapshot
// records are the exact on-disk frame bytes, shipped unmodified. The
// payload's first byte is the message type:
//
//	'h'  hello      follower → primary   'h' | uvarint proto | uvarint lastApplied
//	'a'  ack        follower → primary   'a' | uvarint appliedSeq
//	'b'  heartbeat  primary → follower   'b' | uvarint appendedSeq
//	'C'  commit     primary → follower   a WAL redo record (durable frame grammar)
//	'S'  snapshot   primary → follower   a WAL snapshot record (ditto)
//
// A stream opens with hello; the primary answers with a snapshot (when the
// follower is behind, or after a slow-follower buffer drop) and then the
// live commit tail, heartbeating when idle. The follower acks after each
// apply and echoes an ack for every heartbeat, so both directions carry
// traffic and both ends can run read deadlines. A torn frame, a CRC
// mismatch, or a silent deadline is the reconnect signal — streams carry no
// close handshake, exactly like the log they ship.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
)

// protoVersion is the hello's protocol version; a primary refuses anything
// newer than it understands.
const protoVersion = 1

// Message type tags. MsgCommit and MsgSnapshot deliberately equal the WAL's
// record type bytes: those messages ARE the on-disk frames.
const (
	msgHello     = 'h'
	msgAck       = 'a'
	msgHeartbeat = 'b'
	msgCommit    = 'C'
	msgSnapshot  = 'S'
)

const frameHeaderLen = 8

// frame wraps payload in the WAL frame header.
func frame(payload []byte) []byte {
	b := make([]byte, frameHeaderLen+len(payload))
	copy(b[frameHeaderLen:], payload)
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	return b
}

// helloFrame builds the follower's opening message.
func helloFrame(lastApplied uint64) []byte {
	p := []byte{msgHello}
	p = binary.AppendUvarint(p, protoVersion)
	p = binary.AppendUvarint(p, lastApplied)
	return frame(p)
}

// seqFrame builds a one-uvarint message (ack, heartbeat).
func seqFrame(tag byte, seq uint64) []byte {
	p := []byte{tag}
	p = binary.AppendUvarint(p, seq)
	return frame(p)
}

// uvarint decodes the uvarint at the front of b; w ≤ 0 flags a truncated,
// overflowing or zero-padded encoding. The encoders (binary.AppendUvarint)
// only emit the shortest form, so a padded one is malformed, not another
// spelling of the same message.
func uvarint(b []byte) (v uint64, w int) {
	v, w = binary.Uvarint(b)
	if w > 1 && b[w-1] == 0 {
		return 0, 0
	}
	return v, w
}

// parseSeqPayload decodes a tagged one-uvarint payload.
func parseSeqPayload(p []byte) (uint64, error) {
	if len(p) < 2 {
		return 0, fmt.Errorf("replica: truncated %q message", p)
	}
	seq, w := uvarint(p[1:])
	if w <= 0 || 1+w != len(p) {
		return 0, fmt.Errorf("replica: malformed %q message", p[0])
	}
	return seq, nil
}

// parseHello decodes the follower's opening payload.
func parseHello(p []byte) (lastApplied uint64, err error) {
	if len(p) == 0 || p[0] != msgHello {
		return 0, errors.New("replica: stream did not open with hello")
	}
	p = p[1:]
	ver, w := uvarint(p)
	if w <= 0 {
		return 0, errors.New("replica: malformed hello version")
	}
	// Versions count from 1: a 0 was never sent by any follower.
	if ver == 0 || ver > protoVersion {
		return 0, fmt.Errorf("replica: hello speaks protocol %d, this primary speaks %d", ver, protoVersion)
	}
	last, w2 := uvarint(p[w:])
	if w2 <= 0 || w+w2 != len(p) {
		return 0, errors.New("replica: malformed hello watermark")
	}
	return last, nil
}

// Dialer opens a connection to a primary. net.Dial curried with an address
// is the production dialer; tests inject fault-carrying in-process pairs.
type Dialer func() (net.Conn, error)
