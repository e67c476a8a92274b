//go:build !race

package netsim

import (
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/simtime"
)

// TestAllocNetsimPacket is one datagram through the emulator under Sim:
// Send, the arrival event, the hand-off to a blocked Recv. The copy of
// the payload (Send may not retain the caller's buffer) goes into a
// pooled frame, which the receiver frees as rpc2 frees an SFTP datagram,
// so the steady state allocates nothing. Under the race detector
// sync.Pool drops items at random, so this runs only without it.
func TestAllocNetsimPacket(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	n := New(s, 1)
	s.Run(func() {
		src, dst := n.Host("a"), n.Host("b")
		payload := make([]byte, 1200)
		packet := func() {
			_ = src.Send("b", payload)
			p, _, _ := dst.Recv()
			bufpool.Free(p)
		}
		packet() // the link, the delivery record, the waiter, the frame
		if allocs := testing.AllocsPerRun(200, packet); allocs > 0 {
			t.Errorf("Send/Recv: %v allocs per datagram, want 0", allocs)
		}
	})
}

// TestAllocNetsimServedPacket is the same datagram delivered to a served
// endpoint: Send, the arrival event, and the inbox's Serve entry handing
// it to the handler inside the kernel loop. It may cost no more than the
// Send/Recv pair above, which reads 0.
func TestAllocNetsimServedPacket(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	n := New(s, 1)
	s.Run(func() {
		src, dst := n.Host("a"), n.Host("b")
		served := 0
		dst.Serve(func(p []byte, _ string) {
			served++
			bufpool.Free(p)
		})
		payload := make([]byte, 1200)
		packet := func() {
			_ = src.Send("b", payload)
			s.Sleep(time.Millisecond) // it lands and is served meanwhile
		}
		packet()
		if allocs := testing.AllocsPerRun(200, packet); allocs > 0 {
			t.Errorf("Send/Serve: %v allocs per datagram, want 0", allocs)
		}
		if served != 202 {
			t.Errorf("handler served %d datagrams, want 202", served)
		}
		dst.Close()
	})
}
