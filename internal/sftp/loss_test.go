package sftp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// lossRun sends size bytes from a to b over a modem link whose a->b
// direction loses packets at rate, with lose dropping more by hand (see
// newLossyPair). It returns how many copies of each packet a sent and how
// many the link lost at random.
func lossRun(t *testing.T, seed int64, rate float64, size int, lose func(from string, p []byte, sends []int) bool) (sends []int, linkLost int) {
	t.Helper()
	s := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(s, seed)
	net.SetDefaults(netsim.Modem.Params())
	net.ConfigureOneWay("a", "b", func(p *netsim.LinkParams) { p.LossRate = rate })
	sends = make([]int, packetCount(uint64(size)))
	s.Run(func() {
		a, b := newLossyPair(s, net, func(from string, p []byte) bool {
			if from == "a" {
				_, seq, _, _, _, _, _ := decodeData(p)
				sends[seq]++
			}
			return lose(from, p, sends)
		})
		data := bytes.Repeat([]byte("lossy modem "), size/12+1)[:size]
		done := simtime.NewQueue[error](s)
		s.Go(func() { done.Put(a.engine.Send("b", 1, data, obs.SpanContext{})) })
		got, err := b.engine.Await("a", 1, time.Hour)
		if sendErr, _ := done.Get(); err != nil || sendErr != nil || !bytes.Equal(got, data) {
			t.Fatalf("seed %d: Await %v, Send %v, %d of %d bytes intact", seed, err, sendErr, len(got), size)
		}
	})
	return sends, int(net.StatsBetween("a", "b").PacketsLost)
}

// TestLossOneRetransmitPerLostPacket: on a seeded lossy modem link, with
// the first copies of the head, a middle and the tail packet dropped as
// well and the first final ack lost, every lost data packet is sent again
// exactly once. The lost final ack costs exactly one more copy: the
// timeout re-sends the last packet, and the finished receiver re-acks it.
func TestLossOneRetransmitPerLostPacket(t *testing.T) {
	const size = 150*DataPacketSize - 100
	total := int(packetCount(size))
	for seed := int64(1); seed <= 8; seed++ {
		dropped, finalAck := 0, false
		sends, linkLost := lossRun(t, seed, 0.03, size, func(from string, p []byte, sends []int) bool {
			if from == "a" {
				_, seq, _, _, _, _, _ := decodeData(p)
				if sends[seq] == 1 && (seq == 0 || int(seq) == total/2 || int(seq) == total-1) {
					dropped++
					return true
				}
				return false
			}
			if _, cum, _, _ := decodeAck(p); int(cum) == total && !finalAck {
				finalAck = true
				return true
			}
			return false
		})
		copies := 0
		for _, n := range sends {
			copies += n
		}
		if lost := dropped + linkLost; copies-total != lost+1 {
			t.Errorf("seed %d: %d retransmissions for %d lost data packets and one lost final ack, want %d",
				seed, copies-total, lost, lost+1)
		}
	}
}

// TestLossQueuedRetransmitNotRepeated: on a modem a full window is a
// minute of queue, so the retransmission of an early hole waits behind far
// more than one RTO of data before it can be acked. It is sent once: the
// acks that arrive meanwhile cover only copies that left before it.
func TestLossQueuedRetransmitNotRepeated(t *testing.T) {
	sends, _ := lossRun(t, 1, 0, 200*DataPacketSize, func(from string, p []byte, sends []int) bool {
		if from != "a" {
			return false
		}
		_, seq, _, _, _, _, _ := decodeData(p)
		return seq == 1 && sends[seq] == 1
	})
	for seq, n := range sends {
		want := 1
		if seq == 1 {
			want = 2
		}
		if n != want {
			t.Errorf("packet %d sent %d times, want %d", seq, n, want)
		}
	}
}
