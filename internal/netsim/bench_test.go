package netsim

import (
	"testing"

	"repro/internal/bufpool"
	"repro/internal/simtime"
)

// BenchmarkAllocNetsimPacket is one datagram through the emulator under
// Sim: Send, the arrival event, the hand-off to a blocked Recv. The copy
// of the payload (Send may not retain the caller's buffer) goes into a
// pooled frame, which the receiver frees as rpc2 frees an SFTP datagram,
// so the steady state allocates nothing. Enforced by benchgate against
// bench_baseline.json.
func BenchmarkAllocNetsimPacket(b *testing.B) {
	s := simtime.NewSim(simtime.Epoch1995)
	n := New(s, 1)
	s.Run(func() {
		src, dst := n.Host("a"), n.Host("b")
		payload := make([]byte, 1200)
		recv := func() {
			p, _, _ := dst.Recv()
			bufpool.Free(p)
		}
		_ = src.Send("b", payload) // the link, the delivery record, the waiter, the frame
		recv()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = src.Send("b", payload)
			recv()
		}
	})
}
