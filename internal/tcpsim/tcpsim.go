// Package tcpsim implements a TCP Reno-style congestion-controlled stream
// protocol over the packet network, used solely as the comparison baseline
// for Figure 1 (SFTP vs TCP bulk-transfer throughput).
//
// It models the algorithms that determine bulk throughput: slow start,
// additive-increase congestion avoidance, fast retransmit on triple
// duplicate ACKs with multiplicative decrease, retransmission timeouts with
// Jacobson RTT estimation and Karn's rule, and cumulative acknowledgement
// with out-of-order buffering at the receiver. Connection management
// (SYN/FIN) is omitted: each transfer is a self-describing stream, which
// is all the benchmark exercises.
package tcpsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/simtime"
)

// Segment size mirrors sftp.DataPacketSize so the comparison is apples to
// apples.
const (
	SegmentSize = 1200
	initialSS   = 64 // initial ssthresh, in segments
	maxTimeouts = 12
)

const (
	tagSeg = 0x11
	tagAck = 0x12
)

// ErrTransferFailed reports a stream abandoned after repeated timeouts.
var ErrTransferFailed = errors.New("tcpsim: transfer failed")

// Send streams data to dst over conn, blocking until fully acknowledged.
func Send(clock simtime.Clock, conn *netsim.Endpoint, dst string, streamID uint64, data []byte) error {
	total := uint32((len(data) + SegmentSize - 1) / SegmentSize)
	if total == 0 {
		total = 1
	}

	mon := netmon.NewMonitor(clock)
	peer := mon.Peer(dst)

	acks := simtime.NewQueue[uint32](clock)
	clock.Go(func() {
		for {
			payload, _, ok := conn.Recv()
			if !ok {
				return
			}
			if len(payload) < 13 || payload[0] != tagAck {
				continue
			}
			if binary.BigEndian.Uint64(payload[1:]) != streamID {
				continue
			}
			acks.Put(binary.BigEndian.Uint32(payload[9:]))
		}
	})

	seg := func(i uint32) []byte {
		lo := int(i) * SegmentSize
		hi := lo + SegmentSize
		if lo > len(data) {
			lo = len(data)
		}
		if hi > len(data) {
			hi = len(data)
		}
		buf := make([]byte, 19+hi-lo)
		buf[0] = tagSeg
		binary.BigEndian.PutUint64(buf[1:], streamID)
		binary.BigEndian.PutUint32(buf[9:], i)
		binary.BigEndian.PutUint32(buf[13:], total)
		binary.BigEndian.PutUint16(buf[17:], uint16(hi-lo))
		copy(buf[19:], data[lo:hi])
		return buf
	}

	var (
		base     uint32 // lowest unacked segment
		nextSeq  uint32 // next segment to send
		cwnd     = 1.0  // congestion window, segments
		ssthresh = float64(initialSS)
		dupAcks  int
		timeouts int
		inFR     bool // in fast recovery
		// Classic single-timer RTT sampling: time one segment at a time,
		// abandoning the measurement if anything at or before it is
		// retransmitted (Karn) — this also keeps cumulative ACKs that
		// were blocked behind a hole from producing inflated samples.
		timedSeq int64 = -1
		timedAt  time.Time
	)

	transmit := func(i uint32, isRetx bool) {
		_ = conn.Send(dst, seg(i))
		if isRetx {
			if timedSeq >= 0 && int64(i) <= timedSeq {
				timedSeq = -1
			}
		} else if timedSeq < 0 {
			timedSeq = int64(i)
			timedAt = clock.Now()
		}
	}

	fill := func() {
		for nextSeq < total && float64(nextSeq-base) < cwnd {
			transmit(nextSeq, false)
			nextSeq++
		}
	}
	fill()

	backoff := 0
	for base < total {
		// Exponential timer backoff (RFC 6298 §5.5), reset by new acks;
		// the RTT estimator itself is never fed timeout values.
		rto := peer.RTO() << uint(backoff)
		if rto > netmon.MaxRTO {
			rto = netmon.MaxRTO
		}
		ack, ok := acks.GetTimeout(rto)
		if !ok {
			// Retransmission timeout: multiplicative decrease, slow
			// start from one segment.
			timeouts++
			if timeouts >= maxTimeouts {
				return fmt.Errorf("%w: stalled at segment %d/%d", ErrTransferFailed, base, total)
			}
			backoff++
			ssthresh = cwnd / 2
			if ssthresh < 2 {
				ssthresh = 2
			}
			cwnd = 1
			dupAcks = 0
			inFR = false
			transmit(base, true)
			continue
		}

		if ack > base {
			timeouts = 0
			backoff = 0
			newly := float64(ack - base)
			if timedSeq >= 0 && int64(ack) > timedSeq {
				peer.ObserveRTT(clock.Now().Sub(timedAt))
				timedSeq = -1
			}
			base = ack
			dupAcks = 0
			switch {
			case inFR:
				// Fast recovery ends: deflate the inflated window.
				cwnd = ssthresh
				inFR = false
			case cwnd < ssthresh:
				// RFC 5681 §3.1: increase by at most SMSS per ACK, so a
				// long cumulative ACK cannot balloon the window past
				// what slow start would have reached ack by ack.
				cwnd++
				if cwnd > ssthresh {
					cwnd = ssthresh
				}
			default:
				cwnd += newly / cwnd // congestion avoidance
			}
			fill()
		} else if ack == base {
			dupAcks++
			if dupAcks == 3 {
				// Fast retransmit / fast recovery.
				ssthresh = cwnd / 2
				if ssthresh < 2 {
					ssthresh = 2
				}
				cwnd = ssthresh + 3
				inFR = true
				transmit(base, true)
			} else if dupAcks > 3 {
				cwnd++ // inflate during recovery
				fill()
			}
		}
	}
	return nil
}

// Receive assembles one stream identified by streamID from conn, acking
// cumulatively, and returns the payload.
func Receive(clock simtime.Clock, conn *netsim.Endpoint, streamID uint64, timeout time.Duration) ([]byte, error) {
	var (
		got      = make(map[uint32][]byte)
		total    uint32
		haveMeta bool
		cum      uint32
	)
	deadline := clock.Now().Add(timeout)
	for {
		remain := deadline.Sub(clock.Now())
		if remain <= 0 {
			return nil, fmt.Errorf("tcpsim: receive timed out (%d/%d segments)", cum, total)
		}
		payload, src, ok := conn.RecvTimeout(remain)
		if !ok {
			return nil, fmt.Errorf("tcpsim: receive timed out (%d/%d segments)", cum, total)
		}
		if len(payload) < 19 || payload[0] != tagSeg {
			continue
		}
		if binary.BigEndian.Uint64(payload[1:]) != streamID {
			continue
		}
		seq := binary.BigEndian.Uint32(payload[9:])
		total = binary.BigEndian.Uint32(payload[13:])
		haveMeta = true
		n := int(binary.BigEndian.Uint16(payload[17:]))
		if len(payload) >= 19+n {
			if _, dup := got[seq]; !dup {
				got[seq] = append([]byte(nil), payload[19:19+n]...)
			}
		}
		for {
			if _, have := got[cum]; !have {
				break
			}
			cum++
		}
		ackBuf := make([]byte, 13)
		ackBuf[0] = tagAck
		binary.BigEndian.PutUint64(ackBuf[1:], streamID)
		binary.BigEndian.PutUint32(ackBuf[9:], cum)
		_ = conn.Send(src, ackBuf)

		if haveMeta && cum >= total {
			out := make([]byte, 0, int(total)*SegmentSize)
			for i := uint32(0); i < total; i++ {
				out = append(out, got[i]...)
			}
			// Linger (the role TIME_WAIT plays): keep re-acking
			// retransmitted segments for a while in case our final ack
			// was lost, so the sender can terminate. The connection is
			// dedicated to this stream, as in the benchmark's usage.
			finalTotal := total
			clock.Go(func() {
				deadline := clock.Now().Add(2 * time.Minute)
				for {
					remain := deadline.Sub(clock.Now())
					if remain <= 0 {
						return
					}
					payload, src, ok := conn.RecvTimeout(remain)
					if !ok {
						return
					}
					if len(payload) < 19 || payload[0] != tagSeg ||
						binary.BigEndian.Uint64(payload[1:]) != streamID {
						continue
					}
					ackBuf := make([]byte, 13)
					ackBuf[0] = tagAck
					binary.BigEndian.PutUint64(ackBuf[1:], streamID)
					binary.BigEndian.PutUint32(ackBuf[9:], finalTotal)
					_ = conn.Send(src, ackBuf)
				}
			})
			return out, nil
		}
	}
}
