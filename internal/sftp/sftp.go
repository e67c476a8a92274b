// Package sftp implements the windowed bulk-transfer protocol that ships
// file contents for RPC2, modeled on Coda's SFTP (§4.1).
//
// A transfer moves one byte slice from sender to receiver as a stream of
// data packets under a selective-repeat sliding window. Acknowledgements
// carry a cumulative count plus a bitmap, so a single lost packet costs one
// retransmission rather than a window. Retransmission timeouts come from
// the shared per-peer netmon estimator, and every packet in either
// direction refreshes the peer's liveness (the owner records it as it
// demultiplexes) — this is the keepalive unification the paper describes
// (SFTP traffic suppresses RPC2 and Venus keepalives).
//
// The Engine does not own a socket: its owner (rpc2.Node) passes a send
// function and routes incoming SFTP packets to Deliver. Both directions of
// both protocols therefore share one datagram endpoint, as in Coda.
package sftp

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/netmon"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Protocol constants.
const (
	// DataPacketSize is the payload carried by one data packet.
	DataPacketSize = 1200
	// WindowPackets is the sender's maximum number of unacked packets.
	// An ack's bitmap, and the receiver's record of what has arrived past
	// its cumulative count, is one 64-bit word: no more than that.
	WindowPackets = 64
	// maxConsecutiveTimeouts aborts a transfer wedged on a dead link.
	maxConsecutiveTimeouts = 10
)

// Packet type tags (first byte of an SFTP payload). The top bit, which the
// owner's own protocol leaves clear, makes the tag the mux byte as well:
// the owner hands Deliver, whole, every datagram that starts with it set.
const (
	tagData    = 0x80
	tagAck     = 0x81
	flagTraced = 0x40 // on tagData: a span context follows the header
)

// ErrTransferFailed reports a transfer abandoned after repeated timeouts.
var ErrTransferFailed = errors.New("sftp: transfer failed (peer unreachable)")

// ErrAwaitTimeout reports that an expected incoming transfer never
// completed within the deadline.
var ErrAwaitTimeout = errors.New("sftp: timed out awaiting transfer")

type key struct {
	peer string
	id   uint64
}

// Engine manages all SFTP transfers for one node.
type Engine struct {
	clock simtime.Clock
	send  func(dst string, payload []byte) error
	mon   *netmon.Monitor

	// reg/self mint sftp spans; engine metrics stay unlabeled, so the
	// node label for span attribution is carried explicitly.
	reg  *obs.Registry
	self string

	mu      sync.Mutex
	senders map[key]*simtime.Queue[ackInfo]
	// incoming holds a transfer from its first fragment until an Await
	// (one already waiting has a queue in done) or Sweep takes it.
	incoming map[key]*inTransfer
	done     map[key]*simtime.Queue[[]byte]
	spare    []*simtime.Queue[[]byte] // drained done queues, so a waiting Await allocates nothing
	// completed remembers transfers that are over: the packet count of a
	// finished one, for re-acking a sender that missed the final ack, or
	// abandoned for one Await or Sweep gave up on, so that late fragments
	// are dropped instead of starting a reassembly nobody will take.
	completed map[key]uint32
	order     []key // FIFO bound on completed

	met engineMetrics
}

// engineMetrics caches the engine's counter handles. All handles are
// nil (and inert) when no registry was injected.
type engineMetrics struct {
	packetsSent  *obs.Counter
	bytesSent    *obs.Counter
	retransmits  *obs.Counter
	windowStalls *obs.Counter
	transfers    *obs.Counter
	failures     *obs.Counter
	packetsRecv  *obs.Counter
	bytesRecv    *obs.Counter
}

type ackInfo struct {
	cum    uint32
	bitmap uint64
}

// abandoned is completed's mark for a transfer Await timed out on or
// Sweep freed unfinished; no finished transfer has zero packets.
const abandoned = 0

// acked is a sent packet's transmission number once an ack covers it:
// above every real number, so an acked packet is never taken for a hole.
const acked = math.MaxUint64

// inTransfer reassembles one incoming transfer in place: fragment seq
// lands at buf[seq*DataPacketSize:], once.
//
// Invariants: every packet below cum has arrived; bit b of window says
// whether packet cum+b has, and bit 0 is clear (cum is the first hole),
// so window is also the ack bitmap. Only packets in [cum,
// cum+WindowPackets) are stored: the sender never has more than
// WindowPackets unacked beyond its base, and its base never passes cum,
// so anything further out is not from a sender of this protocol. That
// keeps len(buf) within WindowPackets*DataPacketSize of the bytes
// actually received, whatever size the header claims.
type inTransfer struct {
	total      uint32
	totalBytes uint64
	buf        []byte // a bufpool frame: reassembled prefix plus the window's slots; see grow for its capacity
	cum        uint32
	window     uint64
	idle       bool            // no fragment since the last Sweep
	sp         *obs.SpanHandle // sftp_receive, when the stream is traced
}

// NewEngine returns an Engine sending through send — which must not
// retain the payload after it returns: fragment buffers are pooled and
// recycled as soon as send comes back — and accounting against
// mon. reg may be nil, in which case the engine records no metrics and
// mints no spans; self is the owning node's address, used as the span
// node label.
func NewEngine(clock simtime.Clock, mon *netmon.Monitor, send func(dst string, payload []byte) error, reg *obs.Registry, self string) *Engine {
	return &Engine{
		clock:     clock,
		send:      send,
		mon:       mon,
		reg:       reg,
		self:      self,
		senders:   make(map[key]*simtime.Queue[ackInfo]),
		incoming:  make(map[key]*inTransfer),
		done:      make(map[key]*simtime.Queue[[]byte]),
		completed: make(map[key]uint32),
		met: engineMetrics{
			packetsSent:  reg.Counter("sftp_data_packets_sent_total"),
			bytesSent:    reg.Counter("sftp_bytes_sent_total"),
			retransmits:  reg.Counter("sftp_retransmits_total"),
			windowStalls: reg.Counter("sftp_window_stalls_total"),
			transfers:    reg.Counter("sftp_transfers_total"),
			failures:     reg.Counter("sftp_transfer_failures_total"),
			packetsRecv:  reg.Counter("sftp_data_packets_received_total"),
			bytesRecv:    reg.Counter("sftp_bytes_received_total"),
		},
	}
}

// Send transfers data to dst under transfer id, blocking until the receiver
// has acknowledged every packet or the transfer is abandoned. On success it
// feeds a throughput sample to the peer's bandwidth estimator. A valid sc
// makes the transfer one sftp_transfer span in the caller's trace, and
// every data fragment carries the span context so the receive side joins
// the same tree.
func (e *Engine) Send(dst string, id uint64, data []byte, sc obs.SpanContext) error {
	peer := e.mon.Peer(dst)
	total := packetCount(uint64(len(data)))

	var sp *obs.SpanHandle
	wireCtx := obs.SpanContext{}
	if sc.Valid() {
		sp = e.reg.StartSpan(e.self, "sftp_transfer", sc, obs.F("dst", dst))
		wireCtx = sp.Context()
		if !wireCtx.Valid() {
			wireCtx = sc // registry absent or table full: still propagate
		}
	}
	defer sp.End()

	k := key{dst, id}
	acks := simtime.NewQueue[ackInfo](e.clock)
	e.mu.Lock()
	e.senders[k] = acks
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.senders, k)
		e.mu.Unlock()
	}()

	start := e.clock.Now()
	// Loss is found by transmission order (RACK, RFC 8985): each copy sent
	// takes the next number, tx[i] is packet i's latest (acked once an ack
	// covers it), and a hole is lost only when an ack covers a copy sent
	// after it. The emulator's links keep order, so that is exact: one
	// retransmission per loss, none for a copy still queued on the link.
	tx := make([]uint64, total)
	var next, newest uint64 // newest: the latest copy the ack in hand newly covers
	base := uint32(0)       // all packets < base are acked
	sent := uint32(0)       // highest packet index ever sent + 1
	inflight := int64(0)    // packets in [base, sent) that no ack has covered
	timeouts := 0

	// Single-timer RTT sampling (as in TCP): time one fresh packet at a
	// time; abandon the measurement if it is retransmitted (Karn).
	var timedSeq int64 = -1
	var timedAt time.Time

	xmit := func(i uint32) {
		next++
		tx[i] = next
		lo := int(i) * DataPacketSize
		hi := min(lo+DataPacketSize, len(data))
		e.met.packetsSent.Inc()
		e.met.bytesSent.Add(int64(hi - lo))
		e.shipData(dst, id, i, uint64(len(data)), wireCtx, data[lo:hi])
	}
	xmitFresh := func(i uint32) { // i is sent, about to join [base, sent)
		xmit(i)
		if i >= base { // base passes sent only after a stale ack (see cover)
			inflight++
		}
		if timedSeq < 0 {
			timedSeq = int64(i)
			timedAt = e.clock.Now()
		}
	}
	xmitRetx := func(i uint32) {
		e.met.retransmits.Inc()
		xmit(i)
		if timedSeq >= 0 && int64(i) <= timedSeq {
			timedSeq = -1
		}
	}

	// ackWait allows for the serialization time of everything in flight
	// at the estimated path bandwidth on top of the round-trip RTO; with
	// a window larger than the bandwidth-delay product (always true on a
	// modem), ack spacing is serialization-limited, not RTT-limited.
	ackWait := func(extra time.Duration) time.Duration {
		wait := peer.RTO() + extra
		if bw := peer.Bandwidth(); bw > 0 {
			wait += time.Duration(inflight * DataPacketSize * 8 * int64(time.Second) / bw)
		}
		return wait
	}

	// probe is the number of a timeout's lone retransmission. An ack that
	// covers it may be for the original, still queued when the timer
	// fired, so it says nothing about which later copies arrived: it does
	// not advance newest. RACK's own retransmissions need no such mark -
	// they go out only once a later copy is acked, so the original is lost.
	var probe uint64
	cover := func(i uint32) {
		if i < total && tx[i] != acked {
			if tx[i] != probe {
				newest = max(newest, tx[i])
			}
			tx[i] = acked
			if base <= i && i < sent { // a stale ack may cover what was never sent
				inflight--
			}
		}
	}

	var backoff time.Duration
	for base < total {
		// Fill the window, then wait for an ack.
		for sent < total && sent < base+WindowPackets {
			xmitFresh(sent)
			sent++
		}
		ack, ok := acks.GetTimeout(ackWait(backoff))
		if !ok {
			// Timeout (RFC 6298 §5.4, RFC 8985's tail-loss probe): the
			// first of a run retransmits only the earliest unacked packet,
			// since after a drop to a slower link the window may be merely
			// queued, not lost. A second in a row retransmits everything
			// still outstanding. Both back off.
			timeouts++
			e.met.windowStalls.Inc()
			if timeouts >= maxConsecutiveTimeouts {
				e.met.failures.Inc()
				return fmt.Errorf("%w: %s transfer %d at packet %d/%d",
					ErrTransferFailed, dst, id, base, total)
			}
			if timeouts == 1 {
				xmitRetx(base)
				probe = tx[base]
			} else {
				for i := base; i < sent; i++ {
					if tx[i] != acked {
						xmitRetx(i)
					}
				}
			}
			backoff = cmp.Or(min(2*backoff, netmon.MaxRTO), peer.RTO()) // one RTO, then doubling
			continue
		}
		timeouts = 0
		backoff = 0

		newest = 0
		for i := base; i < ack.cum && i < total; i++ {
			cover(i)
		}
		for m := ack.bitmap; m != 0; m &= m - 1 {
			cover(ack.cum + uint32(bits.TrailingZeros64(m)))
		}
		if timedSeq >= 0 && tx[timedSeq] == acked {
			peer.ObserveRTT(e.clock.Now().Sub(timedAt))
			timedSeq = -1
		}
		for base < total && tx[base] == acked {
			base++
		}
		// Retransmit each hole whose latest copy left before one now acked.
		for i := base; i < sent; i++ {
			if tx[i] < newest {
				xmitRetx(i)
			}
		}
	}

	e.met.transfers.Inc()
	peer.ObserveTransfer(int64(len(data)), e.clock.Now().Sub(start))
	return nil
}

// Await blocks until the transfer (src, id) completes and returns its
// contents: a bufpool frame, the caller's to keep or to Free. A transfer
// has one taker at a time, and a completed one can be taken exactly once. timeout bounds silence, not the whole wait: Await
// gives up only once a full timeout passes without a new fragment, so a
// long transfer that keeps arriving - a chunk sized on Ethernet and
// shipped over a modem - is waited for however long it takes.
func (e *Engine) Await(src string, id uint64, timeout time.Duration) ([]byte, error) {
	k := key{src, id}
	e.mu.Lock()
	if t := e.incoming[k]; t != nil && t.cum == t.total {
		delete(e.incoming, k) // finished before anyone asked
		e.mu.Unlock()
		return t.buf, nil
	}
	if e.done[k] != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("sftp: %s transfer %d is already awaited", src, id)
	}
	var q *simtime.Queue[[]byte]
	if n := len(e.spare); n > 0 {
		q, e.spare = e.spare[n-1], e.spare[:n-1]
	} else {
		q = simtime.NewQueue[[]byte](e.clock)
	}
	e.done[k] = q
	e.mu.Unlock()

	var t *inTransfer
	var heard uint32 // fragments stored at the last expiry
	for {
		data, ok := q.GetTimeout(timeout)
		e.mu.Lock()
		if ok {
			delete(e.done, k)
			e.spare = append(e.spare, q) // its one item taken; a timed-out one may yet get a late Put
			e.mu.Unlock()
			return data, nil
		}
		if t = e.incoming[k]; t == nil || t.stored() == heard {
			break
		}
		heard = t.stored()
		e.mu.Unlock()
	}
	// Nobody will take this transfer now: free what has been reassembled
	// and, unless it completed while the deadline fired, refuse the rest.
	delete(e.done, k)
	delete(e.incoming, k)
	if _, over := e.completed[k]; !over {
		e.forgetLocked(k, abandoned)
	}
	e.mu.Unlock()
	if t != nil {
		bufpool.Free(t.buf)
		t.sp.End()
	}
	return nil, fmt.Errorf("%w: %s transfer %d", ErrAwaitTimeout, src, id)
}

// Sweep frees a transfer, finished or stalled, that no Await is waiting
// for and no fragment has reached since the previous Sweep (the header
// packet announcing it was lost), marking a stalled one abandoned. The
// owner's period must exceed a live sender's longest silence.
func (e *Engine) Sweep() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for k, t := range e.incoming {
		if t.idle && e.done[k] == nil { // an awaited one is Await's to free
			delete(e.incoming, k)
			bufpool.Free(t.buf)
			if t.cum < t.total {
				e.forgetLocked(k, abandoned)
				t.sp.End()
			}
		}
		t.idle = true
	}
}

// Deliver routes one incoming SFTP payload from src into the engine. The
// owning node calls it from its demultiplexer, which has already recorded
// that src is alive (netmon.Peer.Heard), so Deliver does not. A
// fragment's bytes are copied into reassembly, so payload is the caller's
// again on return.
func (e *Engine) Deliver(src string, payload []byte) {
	if len(payload) == 0 {
		return
	}
	switch payload[0] {
	case tagData, tagData | flagTraced:
		e.deliverData(src, payload)
	case tagAck:
		e.deliverAck(src, payload)
	}
}

// packetCount is the number of data packets a transfer of size bytes is
// cut into; a zero-length transfer still needs one (empty) packet.
func packetCount(size uint64) uint32 {
	return uint32(max(1, (size+DataPacketSize-1)/DataPacketSize))
}

// slotLen is the payload length packet seq < t.total must carry.
func (t *inTransfer) slotLen(seq uint32) int {
	if seq+1 < t.total {
		return DataPacketSize
	}
	return int(t.totalBytes - uint64(t.total-1)*DataPacketSize)
}

// stored counts distinct packets arrived: it grows with each new fragment.
func (t *inTransfer) stored() uint32 {
	return t.cum + uint32(bits.OnesCount64(t.window))
}

// store copies packet seq into place and advances cum past every packet
// now contiguous. It reports false, having changed nothing, for a packet
// that disagrees with the transfer's shape or lies beyond the window;
// a duplicate is accepted and ignored.
func (t *inTransfer) store(seq, total uint32, totalBytes uint64, data []byte) bool {
	if total != t.total || totalBytes != t.totalBytes || seq >= t.total ||
		len(data) != t.slotLen(seq) {
		return false
	}
	if seq < t.cum {
		return true
	}
	b := seq - t.cum
	if b >= WindowPackets {
		return false
	}
	if t.window&(1<<b) != 0 {
		return true
	}
	off := int(seq) * DataPacketSize
	if end := off + len(data); end > len(t.buf) {
		t.grow(end)
	}
	copy(t.buf[off:], data)
	t.window |= 1 << b
	for t.window&1 != 0 {
		t.window >>= 1
		t.cum++
	}
	return true
}

// grow extends buf to n bytes. Capacity starts at a window's worth and
// quadruples from there — a long transfer is recopied a handful of times
// — but is never asked for beyond totalBytes, so the buffer handed over
// on completion is at most the frame class of totalBytes (< 1.25x). Each
// buffer is a bufpool frame and the one outgrown goes back at once.
func (t *inTransfer) grow(n int) {
	if n > cap(t.buf) {
		c := uint64(max(n, 4*cap(t.buf), WindowPackets*DataPacketSize))
		nb := bufpool.Frame(int(min(c, t.totalBytes)))[:len(t.buf)]
		copy(nb, t.buf)
		bufpool.Free(t.buf)
		t.buf = nb
	}
	t.buf = t.buf[:n]
}

func (e *Engine) deliverData(src string, payload []byte) {
	id, seq, total, totalBytes, sc, data, ok := decodeData(payload)
	if !ok {
		return
	}
	e.met.packetsRecv.Inc()
	e.met.bytesRecv.Add(int64(len(data)))
	k := key{src, id}

	e.mu.Lock()
	if doneTotal, over := e.completed[k]; over {
		e.mu.Unlock()
		if doneTotal != abandoned {
			// The sender missed our final ack; re-ack so it can finish.
			e.shipAck(src, id, doneTotal, 0)
		}
		return
	}
	t := e.incoming[k]
	first := t == nil
	if first {
		t = &inTransfer{total: total, totalBytes: totalBytes}
	}
	if !t.store(seq, total, totalBytes, data) {
		e.mu.Unlock()
		return
	}
	t.idle = false
	if first {
		if sc.Valid() {
			// The receive span opens on the first fragment and closes
			// on assembly; its parent context rode in on the wire.
			t.sp = e.reg.StartSpan(e.self, "sftp_receive", sc, obs.F("src", src))
		}
		e.incoming[k] = t
	}

	cum, bitmap := t.cum, t.window
	if cum < t.total {
		e.mu.Unlock()
		e.shipAck(src, id, cum, bitmap)
		return
	}
	e.forgetLocked(k, t.total)
	q := e.done[k]
	if q != nil {
		delete(e.incoming, k)
	}
	e.mu.Unlock()
	t.sp.End()
	e.shipAck(src, id, cum, bitmap)
	if q != nil {
		q.Put(t.buf)
	}
}

// forgetLocked records how the transfer k ended (its packet count, or
// abandoned), evicting the oldest record beyond 256.
func (e *Engine) forgetLocked(k key, how uint32) {
	e.completed[k] = how
	e.order = append(e.order, k)
	if len(e.order) > 256 {
		delete(e.completed, e.order[0])
		e.order = e.order[1:]
	}
}

func (e *Engine) deliverAck(src string, payload []byte) {
	id, cum, bitmap, ok := decodeAck(payload)
	if !ok {
		return
	}
	e.mu.Lock()
	q := e.senders[key{src, id}]
	e.mu.Unlock()
	if q != nil {
		q.Put(ackInfo{cum: cum, bitmap: bitmap})
	}
}

// Header maxima, for sizing buffers; the fields are minimal uvarints
// (DESIGN.md §14). Data is tag(1) id(<=10) seq(<=5) totalBytes(<=7) and,
// under flagTraced, trace(8) span(8), then the payload to the end of the
// datagram — 7 bytes a fragment of a 36 KB transfer. Ack is tag(1)
// id(<=10) cum(<=5) bitmap(<=10) — 5 bytes when nothing is out of order.
const (
	dataHeader    = 1 + 10 + 5 + 7 + 16
	ackHeader     = 1 + 10 + 5 + 10
	maxTotalBytes = math.MaxUint32 * DataPacketSize // what uint32 packet numbers address
)

// uvarint takes one minimal uvarint of at most limit off the front of p.
// A nil rest (truncated, padded, oversized) survives further calls.
func uvarint(p []byte, limit uint64) (v uint64, rest []byte) {
	v, n := binary.Uvarint(p)
	if n <= 0 || (n > 1 && p[n-1] == 0) || v > limit {
		return 0, nil
	}
	return v, p[n:]
}

// appendData frames one data fragment into dst (the caller owns the
// buffer) and returns the extended slice.
func appendData(dst []byte, id uint64, seq uint32, totalBytes uint64, sc obs.SpanContext, data []byte) []byte {
	tag := len(dst)
	dst = append(dst, tagData)
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(seq))
	dst = binary.AppendUvarint(dst, totalBytes)
	if sc.Valid() {
		dst[tag] |= flagTraced
		dst = binary.BigEndian.AppendUint64(dst, sc.Trace)
		dst = binary.BigEndian.AppendUint64(dst, sc.Span)
	}
	return append(dst, data...)
}

// shipData frames one data fragment into a pooled buffer and hands it
// to the send callback, which must not retain it. One of these fires
// per fragment of every bulk transfer; zero steady-state allocations
// here is pinned by TestAllocShipData (the span context is two header
// words, nothing heap-allocated).
func (e *Engine) shipData(dst string, id uint64, seq uint32, totalBytes uint64, sc obs.SpanContext, data []byte) {
	bp := bufpool.Get(dataHeader + len(data))
	*bp = appendData(*bp, id, seq, totalBytes, sc, data)
	_ = e.send(dst, *bp)
	bufpool.Put(bp)
}

// decodeData accepts only what appendData frames (Deliver has read the
// tag); total is derived and data aliases p.
func decodeData(p []byte) (id uint64, seq, total uint32, totalBytes uint64, sc obs.SpanContext, data []byte, ok bool) {
	traced := p[0]&flagTraced != 0
	id, data = uvarint(p[1:], math.MaxUint64)
	s, data := uvarint(data, math.MaxUint32)
	totalBytes, data = uvarint(data, maxTotalBytes)
	if traced && len(data) >= 16 {
		sc.Trace, sc.Span = binary.BigEndian.Uint64(data), binary.BigEndian.Uint64(data[8:])
		data = data[16:]
	}
	// A context cut short or all-zero under the flag leaves sc invalid here.
	if data == nil || sc.Valid() != traced || len(data) > DataPacketSize {
		return // ok is false
	}
	return id, uint32(s), packetCount(totalBytes), totalBytes, sc, data, true
}

func appendAck(dst []byte, id uint64, cum uint32, bitmap uint64) []byte {
	dst = append(dst, tagAck)
	dst = binary.AppendUvarint(dst, id)
	dst = binary.AppendUvarint(dst, uint64(cum))
	return binary.AppendUvarint(dst, bitmap)
}

// shipAck frames one ack into a pooled buffer; every received data
// fragment answers with one of these.
func (e *Engine) shipAck(dst string, id uint64, cum uint32, bitmap uint64) {
	bp := bufpool.Get(ackHeader)
	*bp = appendAck(*bp, id, cum, bitmap)
	_ = e.send(dst, *bp)
	bufpool.Put(bp)
}

// decodeAck accepts only what appendAck frames, and nothing after it.
func decodeAck(p []byte) (id uint64, cum uint32, bitmap uint64, ok bool) {
	id, p = uvarint(p[1:], math.MaxUint64)
	c, p := uvarint(p, math.MaxUint32)
	bitmap, p = uvarint(p, math.MaxUint64)
	if p == nil || len(p) != 0 {
		return 0, 0, 0, false
	}
	return id, uint32(c), bitmap, true
}
