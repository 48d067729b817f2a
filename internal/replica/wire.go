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
// both fixed fields little-endian. Frames come from durable's one framer
// (durable.Frame) and are read by durable.ReadFrame, so only the durable
// package knows the frame format, and replicated commit and snapshot
// records are the exact on-disk frame bytes: shipped unmodified, and
// journaled by the follower as they arrive (durable.Engine.ApplyReplicated),
// so a follower's log equals its primary's byte for byte. The payload's
// first byte is the message type:
//
//	'h'  hello      follower → primary   'h' | uvarint proto | uvarint lastApplied
//	'a'  ack        follower → primary   'a' | uvarint appliedSeq
//	'b'  heartbeat  primary → follower   'b' | uvarint appendedSeq
//	'C'  commit     primary → follower   a WAL commit record: 'C' | uvarint seq | writes
//	'S'  snapshot   primary → follower   a WAL snapshot record: 'S' | uvarint seq | cells
//
// Every uvarint is read by durable.Uvarint, the log's own reader, which
// refuses a zero-padded encoding: the writers emit only the shortest form,
// so each message has exactly one spelling.
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
	"net"

	"repro/internal/durable"
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

// helloFrame builds the follower's opening message.
func helloFrame(lastApplied uint64) []byte {
	b := append(make([]byte, durable.FrameHeaderLen, 32), msgHello)
	b = binary.AppendUvarint(b, protoVersion)
	return durable.Frame(binary.AppendUvarint(b, lastApplied))
}

// seqFrame builds a one-uvarint message (ack, heartbeat).
func seqFrame(tag byte, seq uint64) []byte {
	b := append(make([]byte, durable.FrameHeaderLen, 32), tag)
	return durable.Frame(binary.AppendUvarint(b, seq))
}

// parseRecordSeq decodes the seq of a commit or snapshot payload, the
// uvarint after its kind byte. The rest of the record is the durable
// engine's to decode, once, when it applies the frame.
func parseRecordSeq(p []byte) (uint64, error) {
	seq, w := durable.Uvarint(p[1:])
	if w <= 0 {
		return 0, fmt.Errorf("replica: malformed %q record seq", p[0])
	}
	return seq, nil
}

// parseSeqPayload decodes a tagged one-uvarint payload.
func parseSeqPayload(p []byte) (uint64, error) {
	if len(p) < 2 {
		return 0, fmt.Errorf("replica: truncated %q message", p)
	}
	seq, w := durable.Uvarint(p[1:])
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
	ver, w := durable.Uvarint(p)
	if w <= 0 {
		return 0, errors.New("replica: malformed hello version")
	}
	// Versions count from 1: a 0 was never sent by any follower.
	if ver == 0 || ver > protoVersion {
		return 0, fmt.Errorf("replica: hello speaks protocol %d, this primary speaks %d", ver, protoVersion)
	}
	last, w2 := durable.Uvarint(p[w:])
	if w2 <= 0 || w+w2 != len(p) {
		return 0, errors.New("replica: malformed hello watermark")
	}
	return last, nil
}

// Dialer opens a connection to a primary. net.Dial curried with an address
// is the production dialer; tests inject fault-carrying in-process pairs.
type Dialer func() (net.Conn, error)
