// Package rpc2 is the remote procedure call layer of the reproduction,
// modeled on Coda's RPC2 (§4.1).
//
// Characteristics carried over from the paper's description:
//
//   - Adaptive retransmission: round-trip times are measured with timestamp
//     echoing (every packet carries a microsecond timestamp; replies echo
//     the timestamp of the specific copy they answer, so samples remain
//     valid across retransmissions — Karn's problem does not arise). The
//     samples feed the shared netmon estimator, whose Jacobson RTO drives
//     both RPC2 and SFTP retransmission, so the protocols work from LAN
//     speeds down to a 1.2 Kb/s serial line.
//   - Unified keepalives: any packet from a peer — request, reply, BUSY,
//     probe, or SFTP data/ack — refreshes the peer's liveness in netmon,
//     which Venus reads instead of generating its own keepalive traffic.
//   - BUSY responses: a server that is still executing a request answers
//     duplicate transmissions with BUSY, which parks the client without
//     backoff; long operations (reintegration) thus do not look like dead
//     servers.
//   - Side effects: bodies larger than one datagram travel via the SFTP
//     engine bound to the same endpoint. A request's header packet leads
//     its body and the server awaits the transfer it announces; a reply's
//     header leads its body likewise, and the caller awaits it.
//
// A Node is symmetric: it issues calls and serves a handler, so servers can
// call clients (callback breaks) exactly as clients call servers.
package rpc2

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sftp"
	"repro/internal/simtime"
)

// Byte 0 of a datagram is the mux: a packet's kind (low three bits) and
// flags, or with the top bit set an SFTP tag — then the datagram is the
// engine's, whole, and crosses the node unre-framed and uncopied.
const (
	kindReq      = 1
	kindRep      = 2
	kindBusy     = 3
	kindProbe    = 4
	kindProbeAck = 5
	kindMask     = 0x07
	sftpTag      = 0x80
)

// Flags, in place beside the kind.
const (
	flagBodyViaSFTP = 1 << 3
	flagAppError    = 1 << 4
	flagTraced      = 1 << 5 // a span context follows inc; appendPacket's to set, not a caller's
)

// InlineLimit is the largest body carried inside the request/reply packet
// itself; larger bodies go through SFTP.
const InlineLimit = 1024

// Defaults for CallOpts.
const (
	DefaultTimeout    = 60 * time.Second
	DefaultMaxRetries = 8
	// sftpAwaitSlack bounds the silence a node waits through for a
	// side-effect transfer announced by a header packet.
	sftpAwaitSlack = 5 * time.Minute
)

// Reply-cache bounds. Beyond the per-peer entry cap, whole peer caches are
// reclaimed once netmon stops hearing from the peer: a host silent for
// replyCacheTTL cannot still be retransmitting a request, so at-most-once
// execution is preserved while long-lived nodes stop accumulating state
// for every peer that ever called.
const (
	replyCacheTTL      = time.Hour
	replySweepInterval = 5 * time.Minute
)

// Errors.
var (
	// ErrTimeout reports that the peer never answered.
	ErrTimeout = errors.New("rpc2: call timed out")
	// ErrClosed reports a call on a closed node.
	ErrClosed = errors.New("rpc2: node closed")
)

// RemoteError is an application-level failure returned by the peer's
// handler. The RPC itself succeeded.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "rpc2: remote: " + e.Msg }

// Handler serves incoming calls. sc is the caller's span context as
// carried in the packet header (zero when the call is untraced);
// handlers pass it to StartSpan so server-side work joins the caller's
// trace tree. Returning a non-nil error ships the error string to the
// caller as a RemoteError.
//
// body is valid until the handler returns: one that arrived as a side
// effect is a bufpool frame the Node frees then, so a handler copies what
// it keeps. The reply becomes the Node's, which frees it (bufpool.Free)
// once the caller has it or the reply cache lets it go; it must be a
// slice the handler neither keeps nor shares, and must not alias body.
type Handler func(src string, sc obs.SpanContext, body []byte) ([]byte, error)

// CallOpts tunes one call.
type CallOpts struct {
	// Timeout bounds the whole call; zero means DefaultTimeout.
	Timeout time.Duration
	// MaxRetries bounds header retransmissions; zero means
	// DefaultMaxRetries. Negative means no retries.
	MaxRetries int
	// Span, when valid, makes this call part of a trace: the node mints
	// an rpc2_call child span and propagates its context in the packet
	// header (and through SFTP side effects). Zero leaves the call
	// untraced — zero header bytes, no span minted.
	Span obs.SpanContext
}

// Node is one RPC2 endpoint: a datagram socket plus an SFTP engine, a
// handler for incoming calls, and shared peer estimates.
type Node struct {
	clock   simtime.Clock
	conn    netsim.PacketConn
	mon     *netmon.Monitor
	engine  *sftp.Engine
	handler Handler

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*simtime.Queue[inbound]
	// replyCache remembers recent replies per peer for duplicate
	// suppression (at-most-once execution).
	replyCache map[string]*peerCache
	closed     bool

	epoch time.Time // base for 32-bit microsecond timestamps
	// inc is the node's incarnation, stamped on every request it issues
	// and echoed by replies (RPC2's connection epoch). A restarted node
	// reuses sequence numbers from 1; without the incarnation a peer's
	// reply cache would answer the new node's calls with the old node's
	// replies. Receivers flush a peer's cache when its incarnation
	// changes, and callers discard echoes from a previous life.
	inc uint32

	// reg/self mint rpc2 spans (reg may be nil: tracing inert).
	reg  *obs.Registry
	self string

	met nodeMetrics
}

// nodeMetrics caches the node's metric handles, labeled by the node's
// own address so several nodes can share one registry. Handles are nil
// (inert) when no registry was injected.
type nodeMetrics struct {
	calls       *obs.Counter
	inflight    *obs.Gauge
	retransmits *obs.Counter
	busy        *obs.Counter
	timeouts    *obs.Counter
	handled     *obs.Counter
	dupReplies  *obs.Counter
	rtt         *obs.Histogram
}

// rttBucketsUS spans a LAN round trip to a saturated modem, in
// microseconds.
var rttBucketsUS = []int64{
	1_000, 5_000, 10_000, 50_000, 100_000,
	500_000, 1_000_000, 5_000_000, 10_000_000, 60_000_000,
}

type inbound struct {
	kind   byte
	flags  byte
	tsEcho uint32
	inc    uint32
	body   []byte
	src    string
}

type peerCache struct {
	inc        uint32 // incarnation of the peer this cache serves
	inProgress map[uint64]bool
	replies    map[uint64]wireReply
	order      []uint64
}

type wireReply struct {
	flags byte
	// shipping says a transfer of the side effect is under way.
	shipping bool
	// body rides in the header packet or, under flagBodyViaSFTP, is the
	// side effect, kept until the caller acknowledges its transfer.
	body []byte
}

// inline is the body the reply's header packet carries.
func (r wireReply) inline() []byte {
	if r.flags&flagBodyViaSFTP != 0 {
		return nil
	}
	return r.body
}

// NewNode creates a node on conn and starts its receive loop. handler may
// be nil for pure clients. reg may be nil; when present, the node, its
// SFTP engine, and the shared netmon estimator all publish through it —
// this is the single injection point for transport observability.
func NewNode(clock simtime.Clock, conn netsim.PacketConn, mon *netmon.Monitor, handler Handler, reg *obs.Registry) *Node {
	self := conn.LocalAddr()
	node := obs.L("node", self)
	n := &Node{
		clock:      clock,
		conn:       conn,
		mon:        mon,
		handler:    handler,
		pending:    make(map[uint64]*simtime.Queue[inbound]),
		replyCache: make(map[string]*peerCache),
		// Back-date the epoch so a timestamp can never be zero (zero
		// means "no echo" on the wire).
		epoch: clock.Now().Add(-time.Millisecond),
		inc:   incarnation(clock),
		reg:   reg,
		self:  self,
		met: nodeMetrics{
			calls:       reg.Counter("rpc2_calls_total", node),
			inflight:    reg.Gauge("rpc2_calls_inflight", node),
			retransmits: reg.Counter("rpc2_retransmits_total", node),
			busy:        reg.Counter("rpc2_busy_received_total", node),
			timeouts:    reg.Counter("rpc2_call_timeouts_total", node),
			handled:     reg.Counter("rpc2_requests_handled_total", node),
			dupReplies:  reg.Counter("rpc2_duplicate_requests_total", node),
			rtt:         reg.Histogram("rpc2_rtt_us", rttBucketsUS, node),
		},
	}
	reg.GaugeFunc("rpc2_reply_cache_peers", func() int64 { return int64(n.ReplyCacheSize()) }, node)
	mon.Observe(reg, self)
	n.engine = sftp.NewEngine(clock, mon, n.sendSFTP, reg, self)
	clock.Go(n.recvLoop)
	simtime.Every(clock, replySweepInterval, n.sweepReplyCache)
	return n
}

// sweepReplyCache drops peer caches for hosts netmon has not heard from
// within replyCacheTTL. Caches with a request still executing are kept:
// the reply must be recorded even if the client has vanished. The same
// tick sweeps the engine: a side-effect transfer whose header packet
// never came has no Await to free it, and after an interval untouched
// (sftpAwaitSlack, and beyond a live sender's backoff) is past claiming.
// It runs every replySweepInterval until the first tick after Close.
func (n *Node) sweepReplyCache() bool {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return false
	}
	// Probe in sorted order: Peer registers gauges on first sight,
	// and that registration order must not depend on map iteration.
	srcs := make([]string, 0, len(n.replyCache))
	for src := range n.replyCache {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	for _, src := range srcs {
		if len(n.replyCache[src].inProgress) > 0 {
			continue
		}
		if !n.mon.Peer(src).Alive(replyCacheTTL) {
			delete(n.replyCache, src)
		}
	}
	n.mu.Unlock()
	n.engine.Sweep()
	return true
}

// ReplyCacheSize reports how many peers currently have cached replies
// (observability for the eviction policy).
func (n *Node) ReplyCacheSize() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.replyCache)
}

// Addr returns the node's own address.
func (n *Node) Addr() string { return n.conn.LocalAddr() }

// Monitor returns the shared peer estimator (exported to Venus, per §4.1).
func (n *Node) Monitor() *netmon.Monitor { return n.mon }

// Transfer ships data to dst over the node's SFTP engine outside any RPC;
// the peer claims it with AwaitTransfer. Used by the Figure 1 benchmark and
// available for raw bulk movement.
func (n *Node) Transfer(dst string, id uint64, data []byte) error {
	return n.engine.Send(dst, userXferID(id), data, obs.SpanContext{})
}

// AwaitTransfer receives a raw transfer sent with Transfer.
func (n *Node) AwaitTransfer(src string, id uint64, timeout time.Duration) ([]byte, error) {
	return n.engine.Await(src, userXferID(id), timeout)
}

// Close shuts the node down; in-flight calls fail with ErrClosed.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for _, q := range n.pending {
		q.Close()
	}
	n.mu.Unlock()
	_ = n.conn.Close()
}

// Call sends body to dst and returns the peer handler's reply. body is
// not retained once Call returns. The reply is the caller's: a bufpool
// frame when it came as a side effect, a slice of the datagram
// otherwise, so a caller done with it may bufpool.Free it either way.
func (n *Node) Call(dst string, body []byte, opts CallOpts) ([]byte, error) {
	if opts.Timeout == 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = DefaultMaxRetries
	}
	peer := n.mon.Peer(dst)

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	n.seq++
	seq := n.seq
	replies := simtime.NewQueue[inbound](n.clock)
	n.pending[seq] = replies
	n.mu.Unlock()
	n.met.calls.Inc()
	n.met.inflight.Add(1)
	defer func() {
		n.met.inflight.Add(-1)
		n.mu.Lock()
		delete(n.pending, seq)
		n.mu.Unlock()
	}()

	start := n.clock.Now()
	deadline := start.Add(opts.Timeout)

	// A valid parent context makes this call one rpc2_call span in the
	// caller's tree; its own context travels in every packet copy (and
	// with SFTP side effects). Untraced calls mint nothing and carry
	// zero header bytes.
	var sp *obs.SpanHandle
	wireCtx := obs.SpanContext{}
	if opts.Span.Valid() {
		sp = n.reg.StartSpan(n.self, "rpc2_call", opts.Span, obs.F("dst", dst))
		wireCtx = sp.Context()
	}
	defer sp.End()

	// A body too large to ride inline is a side effect: the header leads
	// it, and the server awaits the transfer the header announces.
	flags, wireBody := byte(0), body
	sideEffect := len(body) > InlineLimit
	if sideEffect {
		flags, wireBody = flagBodyViaSFTP, nil
	}

	send := func() {
		n.sendPacket(dst, kindReq, flags, seq, n.ticks(), 0, n.inc, wireCtx, wireBody)
	}
	send()
	// The transfer's own packets keep the call alive, so the retransmission
	// timer is armed only once the body is acknowledged. An answer echoing
	// a header that left before then is no RTT sample: its round trip
	// spans the whole body.
	var bodyAcked uint32
	if sideEffect {
		if err := n.engine.Send(dst, reqXferID(seq), body, wireCtx); err != nil {
			return nil, fmt.Errorf("rpc2: request side effect: %w", err)
		}
		bodyAcked = n.ticks()
	}

	retries := 0
	rto := peer.RTO()
	for {
		remain := deadline.Sub(n.clock.Now())
		if remain <= 0 {
			n.met.timeouts.Inc()
			return nil, fmt.Errorf("%w: %s after %v", ErrTimeout, dst, opts.Timeout)
		}
		wait := min(rto, remain)
		waitStart := n.clock.Now()
		in, ok := replies.GetTimeout(wait)
		if !ok {
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if closed {
				return nil, ErrClosed
			}
			retries++
			if retries > opts.MaxRetries {
				n.met.timeouts.Inc()
				return nil, fmt.Errorf("%w: %s after %d retries", ErrTimeout, dst, retries-1)
			}
			rto = min(2*rto, netmon.MaxRTO)
			n.met.retransmits.Inc()
			if wireCtx.Valid() {
				// The RTO the caller just burned waiting, attributed as
				// retransmit time on the critical path.
				n.reg.SpanAt(n.self, "rpc2_retransmit_wait", wireCtx, waitStart).End()
			}
			send()
			continue
		}
		if !sideEffect || in.tsEcho-bodyAcked < 1<<31 { // the echoed header left after the body (wraps as observeEcho)
			n.observeEcho(peer, in.tsEcho)
		}
		switch in.kind {
		case kindBusy:
			// Server is working on it: wait a full fresh RTO without
			// counting a retry or backing off.
			n.met.busy.Inc()
			retries = 0
			rto = peer.RTO()
			continue
		case kindRep:
			rep := in.body
			if in.flags&flagBodyViaSFTP != 0 {
				// The header leads the reply's side effect. A body that keeps
				// arriving is waited for however long it takes; a server
				// silent for the rest of the call's time has timed out.
				var err error
				rep, err = n.engine.Await(dst, repXferID(seq), deadline.Sub(n.clock.Now()))
				if err != nil {
					n.met.timeouts.Inc()
					return nil, fmt.Errorf("%w: %s reply side effect: %w", ErrTimeout, dst, err)
				}
			}
			elapsed := n.clock.Now().Sub(start)
			peer.ObserveExchange(int64(len(body)+len(rep)), elapsed)
			if in.flags&flagAppError != 0 {
				return nil, &RemoteError{Msg: string(rep)}
			}
			return rep, nil
		}
	}
}

// Probe performs a liveness/RTT exchange with dst using dedicated probe
// packets (no handler involvement on the peer).
func (n *Node) Probe(dst string, timeout time.Duration) error {
	peer := n.mon.Peer(dst)

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	n.seq++
	seq := n.seq
	replies := simtime.NewQueue[inbound](n.clock)
	n.pending[seq] = replies
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.pending, seq)
		n.mu.Unlock()
	}()

	deadline := n.clock.Now().Add(timeout)
	rto := peer.RTO()
	for {
		n.sendPacket(dst, kindProbe, 0, seq, n.ticks(), 0, n.inc, obs.SpanContext{}, nil)
		remain := deadline.Sub(n.clock.Now())
		if remain <= 0 {
			return fmt.Errorf("%w: probe %s", ErrTimeout, dst)
		}
		wait := min(rto, remain)
		if _, ok := replies.GetTimeout(wait); ok {
			return nil
		}
		rto = min(2*rto, netmon.MaxRTO)
	}
}

func (n *Node) recvLoop() {
	for {
		payload, src, ok := n.conn.Recv()
		if !ok {
			return
		}
		n.mon.Peer(src).Heard()
		if len(payload) == 0 {
			continue
		}
		if payload[0]&sftpTag != 0 {
			n.engine.Deliver(src, payload) // copies what it keeps
			bufpool.Free(payload)
			continue
		}
		kind, flags, seq, ts, tsEcho, inc, sc, body, ok := decodePacket(payload)
		if !ok {
			continue
		}
		switch kind {
		case kindReq:
			n.handleRequest(src, flags, seq, ts, inc, sc, body)
		case kindProbe:
			n.sendPacket(src, kindProbeAck, 0, seq, n.ticks(), ts, inc, obs.SpanContext{}, nil)
		case kindRep, kindBusy, kindProbeAck:
			if inc != n.inc {
				continue // reply addressed to a previous incarnation of this node
			}
			if kind == kindProbeAck {
				n.observeEcho(n.mon.Peer(src), tsEcho)
			}
			n.mu.Lock()
			q := n.pending[seq]
			n.mu.Unlock()
			if q != nil {
				q.Put(inbound{kind: kind, flags: flags, tsEcho: tsEcho, inc: inc, body: body, src: src})
			}
		}
	}
}

func (n *Node) handleRequest(src string, flags byte, seq uint64, ts, inc uint32, sc obs.SpanContext, body []byte) {
	now := n.ticks() // read before n.mu: a cached reply's header is framed under it
	n.mu.Lock()
	pc := n.replyCache[src]
	if pc == nil || pc.inc != inc {
		// First contact, or the peer restarted and began a new sequence
		// space: a fresh cache, abandoning the old incarnation's entries.
		// Handlers still running for the old cache write their replies
		// into the orphaned object, where no new-incarnation sequence
		// number can ever collide with them.
		pc = &peerCache{inc: inc, inProgress: make(map[uint64]bool), replies: make(map[uint64]wireReply)}
		n.replyCache[src] = pc
	}
	if rep, done := pc.replies[seq]; done {
		// A side effect whose transfer failed ships again; one still
		// under way is left to finish.
		reship := rep.flags&flagBodyViaSFTP != 0 && rep.body != nil && !rep.shipping
		if reship {
			rep.shipping = true
			pc.replies[seq] = rep
		}
		header := replyPacket(rep, seq, now, ts, inc)
		n.mu.Unlock()
		n.met.dupReplies.Inc()
		n.ship(src, header)
		if reship {
			n.serve(func() { n.shipReply(pc, src, seq, rep.body, sc) })
		}
		return
	}
	if pc.inProgress[seq] {
		n.mu.Unlock()
		n.sendPacket(src, kindBusy, 0, seq, now, ts, inc, obs.SpanContext{}, nil)
		return
	}
	pc.inProgress[seq] = true
	n.mu.Unlock()

	n.serve(func() {
		reqBody := body
		if flags&flagBodyViaSFTP != 0 {
			var err error
			reqBody, err = n.engine.Await(src, reqXferID(seq), sftpAwaitSlack)
			if err != nil {
				n.mu.Lock()
				delete(pc.inProgress, seq)
				n.mu.Unlock()
				return // client will retry or give up
			}
		}

		n.met.handled.Inc()
		var repFlags byte
		var repBody []byte
		if n.handler == nil {
			repFlags = flagAppError
			repBody = []byte("no handler")
		} else if out, err := n.handler(src, sc, reqBody); err != nil {
			repFlags = flagAppError
			repBody = []byte(err.Error())
		} else {
			repBody = out
		}
		if flags&flagBodyViaSFTP != 0 {
			bufpool.Free(reqBody) // the handler is done with it, and its reply may not alias it
		}

		// The reply is cached before its header leaves, and a side effect
		// follows the header: the caller awaits it as soon as it hears the
		// header, and a retransmitted request finds the reply, body and
		// all, instead of executing the handler again.
		rep := wireReply{flags: repFlags, body: repBody}
		if len(repBody) > InlineLimit {
			rep.flags |= flagBodyViaSFTP
			rep.shipping = true
		}
		done := n.ticks() // the handler took its time: not the request's now
		n.mu.Lock()
		delete(pc.inProgress, seq)
		pc.replies[seq] = rep
		pc.order = append(pc.order, seq)
		if len(pc.order) > 256 {
			if old := pc.replies[pc.order[0]]; !old.shipping {
				bufpool.Free(old.body) // a transfer under way is shipReply's to free
			}
			delete(pc.replies, pc.order[0])
			pc.order = pc.order[1:]
		}
		header := replyPacket(rep, seq, done, ts, inc)
		n.mu.Unlock()
		n.ship(src, header)
		if rep.shipping {
			n.shipReply(pc, src, seq, rep.body, sc)
		}
	})
}

// serve runs job as a tracked goroutine of its own. Under Sim it runs on
// a carrier that an earlier goroutine of the same Run left idle, so a
// served request costs one switch, not a goroutine start and the stack
// growth of a handler's deep frames.
func (n *Node) serve(job func()) {
	n.clock.Go(job)
}

// shipReply transfers the side effect of pc's cached reply seq. The
// transfer carries the caller's span context, so the receive lands in the
// caller's rpc2_call span. Once the caller has acknowledged it the body
// is freed; after a failure the cache keeps it for a retransmitted
// request to ship again, unless the cache has let go of the reply.
func (n *Node) shipReply(pc *peerCache, src string, seq uint64, body []byte, sc obs.SpanContext) {
	err := n.engine.Send(src, repXferID(seq), body, sc)
	n.mu.Lock()
	rep, cached := pc.replies[seq]
	if cached {
		rep.shipping = false
		if err == nil {
			rep.body = nil
		}
		pc.replies[seq] = rep
	}
	n.mu.Unlock()
	if err == nil || !cached {
		bufpool.Free(body)
	}
}

// incarnation derives a node's birth stamp from its clock: truncated
// microseconds since the Unix epoch, never zero. Two incarnations of the
// same address collide only if created within the same microsecond or
// exactly 2^32 µs (~71 minutes) apart — a reboot cannot do either.
func incarnation(clock simtime.Clock) uint32 {
	return max(1, uint32(clock.Now().UnixNano()/int64(time.Microsecond)))
}

// ticks returns the node's clock as truncated microseconds for timestamp
// echoing. Wraparound (~71 minutes) is handled by unsigned subtraction.
func (n *Node) ticks() uint32 {
	return uint32(n.clock.Now().Sub(n.epoch) / time.Microsecond)
}

func (n *Node) observeEcho(peer *netmon.Peer, tsEcho uint32) {
	if tsEcho == 0 {
		return
	}
	delta := n.ticks() - tsEcho // wraps correctly
	if delta < 1<<31 {
		n.met.rtt.Observe(int64(delta))
		peer.ObserveRTT(time.Duration(delta) * time.Microsecond)
	}
}

// Transfer-ID spaces: request bodies, reply bodies, and user transfers must
// not collide on (peer, id).
func reqXferID(seq uint64) uint64 { return seq << 2 }
func repXferID(seq uint64) uint64 { return seq<<2 | 1 }
func userXferID(id uint64) uint64 { return id<<2 | 2 }

// packetHeader is the most that precedes the body, for sizing buffers:
// kind|flags(1) seq(minimal uvarint, <=10) ts(4) tsEcho(4) inc(4) and,
// under flagTraced, trace(8) span(8) — 15 bytes untraced with seq < 2^14.
const packetHeader = 1 + 10 + 12 + 16

// appendPacket frames one packet into dst (the caller owns the buffer)
// and returns the extended slice.
func appendPacket(dst []byte, kind, flags byte, seq uint64, ts, tsEcho, inc uint32, sc obs.SpanContext, body []byte) []byte {
	head := len(dst)
	dst = append(dst, kind|flags)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, ts)
	dst = binary.BigEndian.AppendUint32(dst, tsEcho)
	dst = binary.BigEndian.AppendUint32(dst, inc)
	if sc.Valid() {
		dst[head] |= flagTraced
		dst = binary.BigEndian.AppendUint64(dst, sc.Trace)
		dst = binary.BigEndian.AppendUint64(dst, sc.Span)
	}
	return append(dst, body...)
}

// sendPacket frames one packet into a pooled buffer and hands it to the
// conn. PacketConn.Send must not retain the payload, so the buffer goes
// straight back to the pool: steady-state sends touch the heap zero
// times (pinned by TestAllocSendPacket). The span context is two header
// words — propagation costs no allocations either way.
func (n *Node) sendPacket(dst string, kind, flags byte, seq uint64, ts, tsEcho, inc uint32, sc obs.SpanContext, body []byte) {
	bp := bufpool.Get(packetHeader + len(body))
	*bp = appendPacket(*bp, kind, flags, seq, ts, tsEcho, inc, sc, body)
	n.ship(dst, bp)
}

// replyPacket frames the header packet of the cached reply rep into a
// pooled buffer for ship. The caller holds n.mu: once it is released the
// cache may evict rep and free its body.
func replyPacket(rep wireReply, seq uint64, ts, tsEcho, inc uint32) *[]byte {
	body := rep.inline()
	bp := bufpool.Get(packetHeader + len(body))
	*bp = appendPacket(*bp, kindRep, rep.flags, seq, ts, tsEcho, inc, obs.SpanContext{}, body)
	return bp
}

// ship hands a framed packet to the conn, which does not retain it, and
// recycles its buffer.
func (n *Node) ship(dst string, bp *[]byte) {
	_ = n.conn.Send(dst, *bp)
	bufpool.Put(bp)
}

// sendSFTP is the engine's ship callback, the hottest send path in the
// system: the engine's tag is the mux byte, so the fragment goes as it is.
func (n *Node) sendSFTP(dst string, payload []byte) error {
	return n.conn.Send(dst, payload)
}

// decodePacket splits a framed packet; body aliases p, nothing is
// copied. It accepts only what appendPacket frames: a minimal seq, and
// flagTraced exactly when a valid span context follows.
func decodePacket(p []byte) (kind, flags byte, seq uint64, ts, tsEcho, inc uint32, sc obs.SpanContext, body []byte, ok bool) {
	if len(p) == 0 {
		return
	}
	seq, n := binary.Uvarint(p[1:])
	if n <= 0 || (n > 1 && p[n] == 0) || len(p) < 1+n+12 {
		return
	}
	traced := p[0]&flagTraced != 0
	w, body := p[1+n:], p[1+n+12:]
	if traced && len(body) >= 16 {
		sc.Trace, sc.Span = binary.BigEndian.Uint64(body), binary.BigEndian.Uint64(body[8:])
		body = body[16:]
	}
	if sc.Valid() != traced {
		return // ok is false
	}
	return p[0] & kindMask, p[0] &^ kindMask, seq, binary.BigEndian.Uint32(w), binary.BigEndian.Uint32(w[4:]), binary.BigEndian.Uint32(w[8:]), sc, body, true
}
