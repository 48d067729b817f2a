package replica

import (
	"bytes"
	"math"
	"testing"
)

// fuzzSeqs are the watermark values the seeds encode: zero, one-byte and
// multi-byte uvarints, and the largest uint64.
var fuzzSeqs = []uint64{0, 1, 42, 127, 128, 1 << 40, math.MaxUint64}

// FuzzParseHello: any payload either fails to parse or is exactly the
// payload helloFrame builds for the parsed watermark, a parsed payload with
// a trailing byte is rejected, and nothing panics.
func FuzzParseHello(f *testing.F) {
	for _, seq := range fuzzSeqs {
		f.Add(payloadOf(helloFrame(seq)))
	}
	f.Add([]byte{})
	f.Add([]byte{msgHello})
	f.Add([]byte{msgAck, 1, 1})
	f.Add(helloPayload(protoVersion+1, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		last, err := parseHello(data)
		if err != nil {
			return
		}
		if again := payloadOf(helloFrame(last)); !bytes.Equal(again, data) {
			t.Fatalf("hello %x parsed as watermark %d, which encodes as %x", data, last, again)
		}
		if _, err := parseHello(append(data[:len(data):len(data)], 0)); err == nil {
			t.Fatalf("hello %x with a trailing byte accepted", data)
		}
	})
}

// FuzzParseSeqPayload: any payload either fails to parse or is exactly the
// payload seqFrame builds for its tag and the parsed sequence number, a
// parsed payload with a trailing byte is rejected, and nothing panics.
func FuzzParseSeqPayload(f *testing.F) {
	for _, seq := range fuzzSeqs {
		f.Add(payloadOf(seqFrame(msgAck, seq)))
		f.Add(payloadOf(seqFrame(msgHeartbeat, seq)))
	}
	f.Add([]byte{})
	f.Add([]byte{msgAck})
	f.Add([]byte{msgAck, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, err := parseSeqPayload(data)
		if err != nil {
			return
		}
		if again := payloadOf(seqFrame(data[0], seq)); !bytes.Equal(again, data) {
			t.Fatalf("payload %x parsed as %d, which encodes as %x", data, seq, again)
		}
		if _, err := parseSeqPayload(append(data[:len(data):len(data)], 0)); err == nil {
			t.Fatalf("payload %x with a trailing byte accepted", data)
		}
	})
}
