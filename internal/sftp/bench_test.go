package sftp

import (
	"testing"

	"repro/internal/netmon"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// The ship benchmarks pin the per-fragment framing paths at zero
// steady-state heap allocations (pooled buffers, recycled as soon as
// the send callback returns). Enforced by benchgate against
// bench_baseline.json.

func BenchmarkAllocShipData(b *testing.B) {
	e := &Engine{send: func(dst string, p []byte) error { return nil }}
	data := make([]byte, DataPacketSize)
	e.shipData("dst", 1, 0, uint64(len(data)), obs.SpanContext{}, data) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.shipData("dst", 1, uint32(i), uint64(b.N)*DataPacketSize, obs.SpanContext{}, data)
	}
}

func BenchmarkAllocShipAck(b *testing.B) {
	e := &Engine{send: func(dst string, p []byte) error { return nil }}
	e.shipAck("dst", 1, 0, 0) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.shipAck("dst", 1, uint32(i), 0xff)
	}
}

// BenchmarkAllocSFTPReceive pins the receive side of one fragment — parse,
// copy into the reassembly buffer, advance the cumulative count, ack — at
// zero steady-state allocations. The warm-up takes the buffer to the
// capacity the timed fragments need: three growths, to the frame class
// of 16 windows (growth is geometric, so a longer run amortises to zero
// rather than reading exactly zero).
func BenchmarkAllocSFTPReceive(b *testing.B) {
	clock := simtime.NewSim(simtime.Epoch1995)
	e := NewEngine(clock, netmon.NewMonitor(clock), func(dst string, p []byte) error { return nil }, nil, "rx")
	const room = 16 * WindowPackets * DataPacketSize
	total := uint32(room/DataPacketSize + b.N + 1) // never completes
	data := make([]byte, DataPacketSize)
	var frame []byte
	deliver := func(seq uint32) {
		frame = appendData(frame[:0], 1, seq, uint64(total)*DataPacketSize, obs.SpanContext{}, data)
		e.Deliver("tx", frame)
	}
	warm := uint32(0)
	for ; warm == 0 || cap(e.incoming[key{"tx", 1}].buf) < room; warm++ {
		deliver(warm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver(warm + uint32(i))
	}
}

// TestDecodeAckAllocatesNothing fences the parse of every ack a sender
// receives, the one SFTP receive path BenchmarkAllocSFTPReceive does not
// run.
func TestDecodeAckAllocatesNothing(t *testing.T) {
	p := appendAck(nil, 1<<40, 1<<20, 0xff00ff)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, ok := decodeAck(p); !ok {
			t.Fatal("decodeAck rejected what appendAck framed")
		}
	})
	if allocs != 0 {
		t.Fatalf("decodeAck: %v allocs per ack, want 0", allocs)
	}
}
