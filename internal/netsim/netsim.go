// Package netsim is a packet-level network emulator driven by a
// simtime.Clock.
//
// It models the properties the paper's adaptive mechanisms react to:
// bandwidth (serialization delay), propagation latency, packet loss, bounded
// link queues (tail drop), and intermittence (links going down and coming
// back). Links are reconfigurable while traffic flows, which is how the
// experiments move a client from Ethernet to WaveLan to a modem to total
// disconnection mid-run.
//
// The emulator delivers opaque payloads between named endpoints; RPC2 and
// SFTP sit on top via the PacketConn interface. An adapter over real UDP
// (see udp.go) implements the same interface for live deployments.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/simtime"
)

// PacketConn is a connectionless, unreliable datagram endpoint. Both the
// emulator's Endpoint and the real-UDP adapter implement it.
type PacketConn interface {
	// Send transmits payload toward dst. Delivery is not guaranteed.
	// Send never blocks for transmission; it returns an error only for
	// local problems (closed endpoint, oversized packet). Send must not
	// retain payload after it returns — callers recycle the buffer
	// (internal/bufpool), so an implementation that needs the bytes
	// later must copy them, as the emulator does into a bufpool frame.
	Send(dst string, payload []byte) error
	// Serve hands every packet that arrives from now on to h, in arrival
	// order, until the endpoint closes. The payload is h's alone, a
	// bufpool frame from either backend: h may bufpool.Free it when done
	// (if it keeps it, or a slice of it, it simply never frees it). Serve
	// is called once. On the emulator h runs as simtime.Queue.Serve runs
	// its handler, so under Sim it must not park (it may send and start
	// goroutines); over UDP it runs on a reader goroutine of its own.
	Serve(h func(payload []byte, src string))
	// LocalAddr returns the endpoint's own address.
	LocalAddr() string
	// Close shuts the endpoint; h is handed nothing more.
	Close() error
}

// ErrClosed is returned by Send on a closed endpoint.
var ErrClosed = errors.New("netsim: endpoint closed")

// ErrTooBig is returned by Send when the payload exceeds the path MTU.
var ErrTooBig = errors.New("netsim: packet exceeds MTU")

// Packet is one datagram in flight.
type Packet struct {
	Src     string
	Dst     string
	Payload []byte

	link *link // direction it travels, credited with the delivery at Recv
}

// LinkParams describes one direction of a link.
type LinkParams struct {
	// Bandwidth in bits per second; 0 means infinitely fast.
	Bandwidth int64
	// Latency is one-way propagation delay, applied after serialization.
	Latency time.Duration
	// LossRate is the independent per-packet drop probability [0,1).
	LossRate float64
	// MTU is the largest payload accepted, in bytes. 0 means unlimited.
	MTU int
	// QueueBytes bounds the transmit backlog; packets arriving to a
	// fuller queue are tail-dropped. 0 means unlimited.
	QueueBytes int
	// Overhead is added to each packet's size for serialization-time
	// accounting (IP/UDP/SLIP framing).
	Overhead int
	// Up is false while the link is severed (disconnection).
	Up bool
}

// DefaultLinkParams returns an effectively ideal LAN link.
func DefaultLinkParams() LinkParams {
	return LinkParams{
		Bandwidth:  100e6,
		Latency:    100 * time.Microsecond,
		MTU:        1500,
		QueueBytes: 256 << 10,
		Overhead:   28, // IP + UDP headers
		Up:         true,
	}
}

// Stats counts traffic for one direction of a link. A packet is delivered
// when the destination's Recv or RecvTimeout returns it or its Serve
// handler is given it: one still in flight, waiting unread in the inbox,
// or landed on a closed endpoint is sent but not (yet) delivered.
type Stats struct {
	PacketsSent      int64
	BytesSent        int64 // payload bytes offered, before loss/drops
	PacketsDelivered int64
	BytesDelivered   int64
	PacketsLost      int64 // random loss
	PacketsDropped   int64 // queue overflow, link down, MTU (send errors excluded)
}

type linkKey struct{ src, dst string }

type link struct {
	params    LinkParams
	busyUntil time.Time
	stats     Stats
}

// Network is a collection of endpoints joined by configurable links.
type Network struct {
	clock simtime.Clock

	mu       sync.Mutex
	rng      *rand.Rand
	nodes    map[string]*Endpoint
	links    map[linkKey]*link
	defaults LinkParams
}

// New creates an empty network on clock. seed drives packet loss so runs
// are reproducible.
func New(clock simtime.Clock, seed int64) *Network {
	return &Network{
		clock:    clock,
		rng:      rand.New(rand.NewSource(seed)),
		nodes:    make(map[string]*Endpoint),
		links:    make(map[linkKey]*link),
		defaults: DefaultLinkParams(),
	}
}

// SetDefaults replaces the parameters used for links that have not been
// explicitly configured. It affects only links created afterwards.
func (n *Network) SetDefaults(p LinkParams) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defaults = p
}

// Host creates (or returns) the endpoint named addr. If the existing
// endpoint has been closed, a fresh one replaces it — a rebooted machine
// attaching a new interface at its old address. Packets are routed by
// address at send time, so traffic reaches the replacement; anything
// already queued on the dead endpoint stays dead with it.
func (n *Network) Host(addr string) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.nodes[addr]; ok {
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if !closed {
			return e
		}
	}
	e := &Endpoint{
		net:   n,
		addr:  addr,
		inbox: simtime.NewQueue[Packet](n.clock),
	}
	n.nodes[addr] = e
	return e
}

// SetLink configures both directions between a and b.
func (n *Network) SetLink(a, b string, p LinkParams) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLocked(a, b).params = p
	n.linkLocked(b, a).params = p
}

// Configure applies fn to both directions between a and b, creating the
// link with current defaults if needed. Use it for mid-run changes:
//
//	net.Configure(client, server, func(p *LinkParams) { p.Bandwidth = 9600 })
func (n *Network) Configure(a, b string, fn func(*LinkParams)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(&n.linkLocked(a, b).params)
	fn(&n.linkLocked(b, a).params)
}

// ConfigureOneWay applies fn to the a→b direction only. Asymmetric links
// (the cable-TV case the paper's conclusion flags as future work) are
// modeled by configuring each direction separately.
func (n *Network) ConfigureOneWay(a, b string, fn func(*LinkParams)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(&n.linkLocked(a, b).params)
}

// SetUp raises or severs both directions between a and b.
func (n *Network) SetUp(a, b string, up bool) {
	n.Configure(a, b, func(p *LinkParams) { p.Up = up })
}

// StatsBetween returns counters for the a→b direction.
func (n *Network) StatsBetween(a, b string) Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.linkLocked(a, b).stats
}

// Params returns the current a→b link parameters.
func (n *Network) Params(a, b string) LinkParams {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.linkLocked(a, b).params
}

func (n *Network) linkLocked(src, dst string) *link {
	k := linkKey{src, dst}
	l, ok := n.links[k]
	if !ok {
		l = &link{params: n.defaults}
		n.links[k] = l
	}
	return l
}

// send models the transmission of one packet; called by Endpoint.Send.
func (n *Network) send(src, dst string, payload []byte) error {
	n.mu.Lock()
	l := n.linkLocked(src, dst)
	p := l.params
	l.stats.PacketsSent++
	l.stats.BytesSent += int64(len(payload))

	if p.MTU > 0 && len(payload) > p.MTU {
		n.mu.Unlock()
		return fmt.Errorf("%w: %d > %d", ErrTooBig, len(payload), p.MTU)
	}
	if !p.Up {
		l.stats.PacketsDropped++
		n.mu.Unlock()
		return nil // indistinguishable from loss, as on a real network
	}
	if p.LossRate > 0 && n.rng.Float64() < p.LossRate {
		l.stats.PacketsLost++
		n.mu.Unlock()
		return nil
	}

	now := n.clock.Now()
	size := int64(len(payload) + p.Overhead)

	var txTime time.Duration
	if p.Bandwidth > 0 {
		txTime = time.Duration(size * 8 * int64(time.Second) / p.Bandwidth)
	}
	start := now
	if l.busyUntil.After(start) {
		start = l.busyUntil
	}
	if p.QueueBytes > 0 && p.Bandwidth > 0 && l.busyUntil.After(now) {
		// Floating point avoids int64 overflow for long backlogs (and a
		// negative duration on an idle link is simply no backlog).
		backlogBytes := int64(l.busyUntil.Sub(now).Seconds() * float64(p.Bandwidth) / 8)
		if backlogBytes+size > int64(p.QueueBytes) {
			l.stats.PacketsDropped++
			n.mu.Unlock()
			return nil
		}
	}
	l.busyUntil = start.Add(txTime)
	arrival := l.busyUntil.Add(p.Latency)

	dstEP := n.nodes[dst]
	n.mu.Unlock()

	if dstEP == nil {
		return nil // destination does not exist; packet vanishes
	}
	frame := bufpool.Frame(len(payload))
	copy(frame, payload)
	dstEP.inbox.PutAfter(arrival.Sub(now), Packet{Src: src, Dst: dst, Payload: frame, link: l})
	return nil
}

// Endpoint is a network attachment point implementing PacketConn.
type Endpoint struct {
	net   *Network
	addr  string
	inbox *simtime.Queue[Packet]

	mu     sync.Mutex
	closed bool
}

// LocalAddr implements PacketConn.
func (e *Endpoint) LocalAddr() string { return e.addr }

// Send implements PacketConn.
func (e *Endpoint) Send(dst string, payload []byte) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return e.net.send(e.addr, dst, payload)
}

// Recv blocks until a packet arrives; ok is false once closed. The
// payload is the caller's, as it is a Serve handler's. A served endpoint
// is not read with Recv.
func (e *Endpoint) Recv() ([]byte, string, bool) {
	return e.received(e.inbox.Get())
}

// RecvTimeout is Recv with a deadline on the owning clock.
func (e *Endpoint) RecvTimeout(d time.Duration) ([]byte, string, bool) {
	return e.received(e.inbox.GetTimeout(d))
}

// Serve implements PacketConn through the inbox's simtime.Queue.Serve.
func (e *Endpoint) Serve(h func(payload []byte, src string)) {
	e.inbox.Serve(func(p Packet) {
		e.delivered(p)
		h(p.Payload, p.Src)
	})
}

func (e *Endpoint) received(p Packet, ok bool) ([]byte, string, bool) {
	if !ok {
		return nil, "", false
	}
	e.delivered(p)
	return p.Payload, p.Src, true
}

// delivered counts a packet taken from the inbox as delivered. The count
// lives here and not at arrival because an arrival is a simtime event,
// which runs inside the clock's lock and so may not take n.mu (send holds
// n.mu while it reads the clock).
func (e *Endpoint) delivered(p Packet) {
	e.net.mu.Lock()
	p.link.stats.PacketsDelivered++
	p.link.stats.BytesDelivered += int64(len(p.Payload))
	e.net.mu.Unlock()
}

// Close implements PacketConn.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.inbox.Close()
	return nil
}
