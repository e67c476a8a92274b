//go:build !race

package sftp

import (
	"testing"

	"repro/internal/netmon"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// The per-fragment paths' alloc fences: framing into pooled buffers,
// recycled as soon as the send callback returns, and the receive side.
// Under the race detector bufpool's scratch pool, a sync.Pool, drops
// items at random, so these run only without it.

func TestAllocShipData(t *testing.T) {
	e := &Engine{send: func(dst string, p []byte) error { return nil }}
	data := make([]byte, DataPacketSize)
	e.shipData("dst", 1, 0, uint64(len(data)), obs.SpanContext{}, false, data) // warm the pool
	seq := uint32(0)
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		e.shipData("dst", 1, seq, 1<<20, obs.SpanContext{}, seq%8 == 0, data)
	})
	if allocs > 0 {
		t.Errorf("shipData: %v allocs per fragment, want 0", allocs)
	}
}

func TestAllocShipAck(t *testing.T) {
	e := &Engine{send: func(dst string, p []byte) error { return nil }}
	e.shipAck("dst", 1, 0, 0) // warm the pool
	seq := uint32(0)
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		e.shipAck("dst", 1, seq, 0xff)
	})
	if allocs > 0 {
		t.Errorf("shipAck: %v allocs per ack, want 0", allocs)
	}
}

// TestAllocSFTPReceive pins the receive side of one fragment — parse,
// copy into the reassembly buffer, advance the cumulative count, ack — at
// zero steady-state allocations. The warm-up takes the buffer to the
// capacity the timed fragments need: three growths, to the frame class of
// 16 windows (growth is geometric, so a longer run amortises to zero
// rather than reading exactly zero).
func TestAllocSFTPReceive(t *testing.T) {
	const runs = 200
	clock := simtime.NewSim(simtime.Epoch1995)
	e := NewEngine(clock, netmon.NewMonitor(clock), func(dst string, p []byte) error { return nil }, nil, "rx")
	const room = 16 * WindowPackets * DataPacketSize
	total := uint32(room/DataPacketSize + runs + 2) // never completes
	data := make([]byte, DataPacketSize)
	var frame []byte
	seq := uint32(0)
	deliver := func() {
		frame = appendData(frame[:0], 1, seq, uint64(total)*DataPacketSize, obs.SpanContext{}, true, data)
		e.Deliver("tx", frame)
		seq++
	}
	for seq == 0 || cap(e.incoming[key{"tx", 1}].buf) < room {
		deliver()
	}
	if allocs := testing.AllocsPerRun(runs, deliver); allocs > 0 {
		t.Errorf("Deliver: %v allocs per fragment, want 0", allocs)
	}
}

// TestDecodeAckAllocatesNothing fences the parse of every ack a sender
// receives, the one SFTP receive path TestAllocSFTPReceive does not run.
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
