package rpc2

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// nullConn swallows packets so the benchmarks measure framing, not the
// network emulator's own delivery copies.
type nullConn struct{}

func (nullConn) Send(dst string, payload []byte) error { return nil }
func (nullConn) Recv() ([]byte, string, bool)          { return nil, "", false }
func (nullConn) RecvTimeout(d time.Duration) ([]byte, string, bool) {
	return nil, "", false
}
func (nullConn) LocalAddr() string { return "bench" }
func (nullConn) Close() error      { return nil }

// BenchmarkAllocSendPacket pins the framed control-packet send path at
// zero steady-state heap allocations: the frame is built in a pooled
// buffer and recycled as soon as the conn returns. Enforced by
// benchgate against bench_baseline.json.
func BenchmarkAllocSendPacket(b *testing.B) {
	n := &Node{conn: nullConn{}}
	body := make([]byte, 256)
	n.sendPacket("dst", kindReq, 0, 1, 2, 3, 4, obs.SpanContext{}, body) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.sendPacket("dst", kindReq, 0, uint64(i), 2, 3, 4, obs.SpanContext{}, body)
	}
}

// BenchmarkAllocSendSFTP pins the SFTP mux framing (one per shipped
// fragment) at zero steady-state allocations.
func BenchmarkAllocSendSFTP(b *testing.B) {
	n := &Node{conn: nullConn{}}
	payload := make([]byte, 1200)
	_ = n.sendSFTP("dst", payload) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.sendSFTP("dst", payload)
	}
}

// TestDecodePacketAllocatesNothing fences the receive-side parse of every
// rpc2 datagram: the body aliases the packet, so a traced header and its
// body split off with no heap allocation.
func TestDecodePacketAllocatesNothing(t *testing.T) {
	p := appendPacket(nil, kindReq, 0, 1<<20, 2, 3, 4, obs.SpanContext{Trace: 5, Span: 6}, make([]byte, 256))
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, _, _, _, _, _, ok := decodePacket(p); !ok {
			t.Fatal("decodePacket rejected what appendPacket framed")
		}
	})
	if allocs != 0 {
		t.Fatalf("decodePacket: %v allocs per packet, want 0", allocs)
	}
}
