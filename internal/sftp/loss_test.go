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
// direction loses packets at rate, with lose, told the sim time of each
// send, dropping more by hand (see newLossyPair). It returns how many copies of each packet a sent and how
// many the link lost at random.
func lossRun(t *testing.T, seed int64, rate float64, size int, lose func(now time.Time, from string, p []byte, sends []int) bool) (sends []int, linkLost int) {
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
			return lose(s.Now(), from, p, sends)
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
		sends, linkLost := lossRun(t, seed, 0.03, size, func(_ time.Time, from string, p []byte, sends []int) bool {
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
	sends, _ := lossRun(t, 1, 0, 200*DataPacketSize, func(_ time.Time, from string, p []byte, sends []int) bool {
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

// TestLossProbeAfterDropToModem: a peer whose estimates were made on
// Ethernet - RTO at its floor, 10 Mb/s - moves to a modem, where a full
// window is a minute of queue. The first timeout fires long before the
// window drains; it sends one probe instead of the window again, and the
// ack of the probed packet's original, arriving while the probe is still
// queued, is not taken for the probe's: 256 KB costs at most two copies
// more than its packets.
func TestLossProbeAfterDropToModem(t *testing.T) {
	const size = 256 << 10
	s := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(s, 11)
	net.SetDefaults(netsim.Ethernet.Params())
	copies := 0
	s.Run(func() {
		a, b := newLossyPair(s, net, func(from string, p []byte) bool {
			if from == "a" {
				copies++
			}
			return false
		})
		send := func(id uint64, data []byte) {
			done := simtime.NewQueue[error](s)
			s.Go(func() { done.Put(a.engine.Send("b", id, data, obs.SpanContext{})) })
			got, err := b.engine.Await("a", id, time.Hour)
			if sendErr, _ := done.Get(); err != nil || sendErr != nil || !bytes.Equal(got, data) {
				t.Fatalf("transfer %d: Await %v, Send %v, %d of %d bytes intact", id, err, sendErr, len(got), len(data))
			}
		}
		for id := uint64(1); id <= 4; id++ {
			send(id, make([]byte, 64<<10))
		}
		net.SetLink("a", "b", netsim.Modem.Params())
		copies = 0
		send(5, bytes.Repeat([]byte("dropped to a modem "), size/19+1)[:size])
	})
	if want := int(packetCount(size)) + 2; copies > want {
		t.Errorf("%d data packets for %d KB (%d packets), want at most %d", copies, size>>10, packetCount(size), want)
	}
}

// TestLossTailProbeLost: the last three packets are lost and so is the
// probe the first timeout sends in their place. The second timeout in a row
// re-sends everything outstanding at once, and the transfer completes.
func TestLossTailProbeLost(t *testing.T) {
	const size = 20 * DataPacketSize
	total := packetCount(size)
	var at [3][]time.Time // per tail packet, when each copy left
	sends, _ := lossRun(t, 1, 0, size, func(now time.Time, from string, p []byte, sends []int) bool {
		if from != "a" {
			return false
		}
		_, seq, _, _, _, _, _ := decodeData(p)
		if seq < total-3 {
			return false
		}
		tail := seq - (total - 3)
		at[tail] = append(at[tail], now)
		return sends[seq] == 1 || tail == 0 && sends[seq] == 2
	})
	for seq, n := range sends {
		want := 1
		switch uint32(seq) {
		case total - 3:
			want = 3 // lost, probed (lost), then re-sent with the rest
		case total - 2, total - 1:
			want = 2
		}
		if n != want {
			t.Errorf("packet %d sent %d times, want %d", seq, n, want)
		}
	}
	if last := at[0][len(at[0])-1]; !at[1][1].Equal(last) || !at[2][1].Equal(last) {
		t.Errorf("tail re-sent at %v, %v and %v, want all at once on the second timeout",
			last, at[1][1], at[2][1])
	}
}
