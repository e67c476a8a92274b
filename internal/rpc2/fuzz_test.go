package rpc2

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// refusedForms are packets that read as a value but are not what
// appendPacket frames for it, one per rule; decodePacket must refuse each.
var refusedForms = map[string][]byte{
	"non-minimal seq":            {kindReq, 0x81, 0x00, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3},
	"seq beyond 64 bits":         {kindReq, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3},
	"traced flag, zero context":  append([]byte{kindReq | flagTraced, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3}, make([]byte, 16)...),
	"traced flag, short context": append([]byte{kindReq | flagTraced, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3}, make([]byte, 15)...),
	"truncated seq":              {kindReq, 0x80},
	"truncated words":            {kindReq, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0},
	"one byte":                   {kindRep},
	"nothing":                    {},
}

func TestDecodePacketRefusesNonCanonicalForms(t *testing.T) {
	for name, p := range refusedForms {
		if _, _, _, _, _, _, _, _, ok := decodePacket(p); ok {
			t.Errorf("%s: % x accepted", name, p)
		}
	}
}

// FuzzDecodePacket: the packet header parser takes whatever a datagram
// holds. It must not panic, and what it accepts must re-frame to the
// bytes it was read from (one encoding per packet, body aliased, nothing
// dropped) — so each non-canonical form above is refused.
func FuzzDecodePacket(f *testing.F) {
	f.Add(appendPacket(nil, kindReq, flagBodyViaSFTP, 1, 2, 3, 4, obs.SpanContext{Trace: 5, Span: 6}, []byte("body")))
	f.Add(appendPacket(nil, kindProbeAck, 0, 1<<63, 0, 0, 0, obs.SpanContext{}, nil))
	f.Add(make([]byte, packetHeader-1))
	for _, p := range refusedForms {
		f.Add(p)
	}

	f.Fuzz(func(t *testing.T, p []byte) {
		kind, flags, seq, ts, tsEcho, inc, sc, body, ok := decodePacket(p)
		if !ok {
			return
		}
		if again := appendPacket(nil, kind, flags, seq, ts, tsEcho, inc, sc, body); !bytes.Equal(again, p) {
			t.Fatalf("re-framed packet differs:\n got %x\nwant %x", again, p)
		}
	})
}
