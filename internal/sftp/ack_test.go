package sftp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// TestAckOnRequest: on a loss-free link the receiver acks only what the
// sender asks for - the first two packets, every ackEvery-th, the timed
// one and the last ackEvery - so a 200 KB transfer of 171 packets draws
// at most 32 acks, where acking every fragment drew 171. The sparse acks
// never let the sender's timer fire: on Ethernet and on the modem alike,
// each packet is sent exactly once.
func TestAckOnRequest(t *testing.T) {
	const size = 200 << 10
	total := int(packetCount(size))
	for _, link := range []netsim.Profile{netsim.Ethernet, netsim.Modem} {
		s := simtime.NewSim(simtime.Epoch1995)
		net := netsim.New(s, 1)
		net.SetDefaults(link.Params())
		copies, acks := 0, 0
		s.Run(func() {
			a, b := newLossyPair(s, net, func(from string, p []byte) bool {
				if from == "a" {
					copies++
				} else if p[0] == tagAck {
					acks++
				}
				return false
			})
			data := bytes.Repeat([]byte("asked for "), size/10+1)[:size]
			done := simtime.NewQueue[error](s)
			s.Go(func() { done.Put(a.engine.Send("b", 1, data, obs.SpanContext{})) })
			got, err := b.engine.Await("a", 1, time.Hour)
			if sendErr, _ := done.Get(); err != nil || sendErr != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: Await %v, Send %v, %d of %d bytes intact", link.Name, err, sendErr, len(got), size)
			}
		})
		if acks > 32 {
			t.Errorf("%s: %d acks for %d packets, want at most 32", link.Name, acks, total)
		}
		if copies != total {
			t.Errorf("%s: %d data packets sent for %d, want each once (no timeout)", link.Name, copies, total)
		}
	}
}
