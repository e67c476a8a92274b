package rpc2

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// TestHeaderBudget pins what an rpc2 packet costs on the weak link
// before its body, so a field cannot creep back: 16 bytes at most for
// an untraced request (15 in a node's first 16,384 calls, 16 up to two
// million), and exactly a span context more when the call is traced.
func TestHeaderBudget(t *testing.T) {
	body := []byte("GetAttr")
	traced := obs.SpanContext{Trace: 1 << 60, Span: 1<<60 | 7}
	for _, seq := range []uint64{1, 1<<14 - 1, 1<<21 - 1} {
		plain := len(appendPacket(nil, kindReq, 0, seq, 1<<31, 0, 1<<31, obs.SpanContext{}, body)) - len(body)
		if plain > 16 {
			t.Errorf("seq %d: %d header bytes, budget 16", seq, plain)
		}
		if with := len(appendPacket(nil, kindReq, 0, seq, 1<<31, 0, 1<<31, traced, body)) - len(body); with != plain+16 {
			t.Errorf("seq %d: traced header is %d bytes, want %d+16", seq, with, plain)
		}
	}
	if worst := len(appendPacket(nil, kindRep, flagAppError, 1<<64-1, 1<<32-1, 1<<32-1, 1<<32-1, traced, nil)); worst != packetHeader {
		t.Errorf("largest header is %d bytes, packetHeader says %d", worst, packetHeader)
	}
}

// TestHeaderRoundTrip: whatever sendPacket can frame decodes to the same
// values, across the whole range of every field.
func TestHeaderRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 20_000; i++ {
		kind, flags := byte(1+r.Intn(kindProbeAck)), []byte{0, flagBodyViaSFTP, flagAppError, flagBodyViaSFTP | flagAppError}[r.Intn(4)]
		seq := r.Uint64() >> uint(r.Intn(64)) // every length of uvarint
		ts, tsEcho, inc := r.Uint32(), r.Uint32(), r.Uint32()
		var sc obs.SpanContext
		want := flags // the decoder reports flagTraced beside the caller's flags
		if r.Intn(2) == 0 {
			sc = obs.SpanContext{Trace: r.Uint64() | 1, Span: r.Uint64()}
			want |= flagTraced
		}
		body := make([]byte, r.Intn(InlineLimit+1))
		r.Read(body)
		gkind, gflags, gseq, gts, gecho, ginc, gsc, gbody, ok := decodePacket(appendPacket(nil, kind, flags, seq, ts, tsEcho, inc, sc, body))
		if !ok || gkind != kind || gflags != want || gseq != seq || gts != ts || gecho != tsEcho || ginc != inc || gsc != sc || !bytes.Equal(gbody, body) {
			t.Fatalf("packet (%d, %#x, %d, %d, %d, %d, %v, %d bytes) came back (%d, %#x, %d, %d, %d, %d, %v, %d bytes) ok %v",
				kind, flags, seq, ts, tsEcho, inc, sc, len(body), gkind, gflags, gseq, gts, gecho, ginc, gsc, len(gbody), ok)
		}
	}
}
