package netsim

import (
	"testing"

	"repro/internal/simtime"
)

// BenchmarkAllocNetsimPacket is one datagram through the emulator under
// Sim: Send, the arrival event, the hand-off to a blocked Recv. The copy
// of the payload (Send may not retain the caller's buffer) is the only
// allocation. Enforced by benchgate against bench_baseline.json.
func BenchmarkAllocNetsimPacket(b *testing.B) {
	s := simtime.NewSim(simtime.Epoch1995)
	n := New(s, 1)
	s.Run(func() {
		src, dst := n.Host("a"), n.Host("b")
		payload := make([]byte, 1200)
		_ = src.Send("b", payload) // the link, the delivery record, the waiter
		dst.Recv()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = src.Send("b", payload)
			dst.Recv()
		}
	})
}
