//go:build !race

package rpc2

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// The framing paths' alloc fences. Under the race detector sync.Pool
// drops items at random, so these run only without it.

// nullConn swallows packets so the fences measure framing, not the
// network emulator's own delivery copies.
type nullConn struct{}

func (nullConn) Send(dst string, payload []byte) error { return nil }
func (nullConn) Recv() ([]byte, string, bool)          { return nil, "", false }
func (nullConn) RecvTimeout(d time.Duration) ([]byte, string, bool) {
	return nil, "", false
}
func (nullConn) Serve(func([]byte, string)) {}
func (nullConn) LocalAddr() string          { return "bench" }
func (nullConn) Close() error               { return nil }

// TestAllocSendPacket pins the framed control-packet send path at zero
// steady-state heap allocations: the frame is built in a pooled buffer
// and recycled as soon as the conn returns.
func TestAllocSendPacket(t *testing.T) {
	n := &Node{conn: nullConn{}}
	body := make([]byte, 256)
	n.sendPacket("dst", kindReq, 0, 1, 2, 3, 4, obs.SpanContext{}, body) // warm the pool
	seq := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		n.sendPacket("dst", kindReq, 0, seq, 2, 3, 4, obs.SpanContext{}, body)
	})
	if allocs > 0 {
		t.Errorf("sendPacket: %v allocs per packet, want 0", allocs)
	}
}

// TestAllocSendSFTP pins the SFTP mux framing (one per shipped fragment)
// at zero steady-state allocations.
func TestAllocSendSFTP(t *testing.T) {
	n := &Node{conn: nullConn{}}
	payload := make([]byte, 1200)
	_ = n.sendSFTP("dst", payload) // warm the pool
	allocs := testing.AllocsPerRun(200, func() { _ = n.sendSFTP("dst", payload) })
	if allocs > 0 {
		t.Errorf("sendSFTP: %v allocs per fragment, want 0", allocs)
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

// TestAllocNodeCall pins one warm served call: an inline request and
// reply between two Nodes on a Sim, through the network emulator, the
// server's reply cache and a handler goroutine on a reused carrier.
func TestAllocNodeCall(t *testing.T) {
	w := newWorld(1, netsim.Ethernet.Params())
	w.sim.Run(func() {
		srv := w.node("server", echoHandler)
		c := w.node("client", nil)
		body := []byte("status")
		call := func() {
			if _, err := c.Call("server", body, CallOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		for range 300 { // fill the reply cache to its cap, so each call evicts one
			call()
		}
		if allocs := testing.AllocsPerRun(200, call); allocs > 6 {
			t.Errorf("served call: %v allocs, want ≤ 6", allocs)
		}
		srv.Close()
		c.Close()
	})
}
