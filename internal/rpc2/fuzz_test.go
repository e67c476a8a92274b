package rpc2

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// FuzzDecodePacket: the packet header parser takes whatever a datagram
// holds. It must not panic, must refuse anything shorter than a header,
// and what it accepts must re-frame to the bytes it was read from (one
// encoding per packet, body aliased, nothing dropped).
func FuzzDecodePacket(f *testing.F) {
	f.Add(appendPacket(nil, kindReq, flagBodyViaSFTP, 1, 2, 3, 4, obs.SpanContext{Trace: 5, Span: 6}, []byte("body")))
	f.Add(appendPacket(nil, kindProbeAck, 0, 1<<63, 0, 0, 0, obs.SpanContext{}, nil))
	f.Add([]byte{kindSFTP})
	f.Add(make([]byte, packetHeader-1))

	f.Fuzz(func(t *testing.T, p []byte) {
		kind, flags, seq, ts, tsEcho, inc, sc, body, ok := decodePacket(p)
		if ok != (len(p) >= packetHeader) {
			t.Fatalf("%d bytes: ok = %v", len(p), ok)
		}
		if !ok {
			return
		}
		if again := appendPacket(nil, kind, flags, seq, ts, tsEcho, inc, sc, body); !bytes.Equal(again, p) {
			t.Fatalf("re-framed packet differs:\n got %x\nwant %x", again, p)
		}
	})
}
