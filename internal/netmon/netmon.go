// Package netmon maintains per-peer network quality estimates shared by
// RPC2, SFTP, and Venus.
//
// The paper's §4.1 describes two transport changes: (1) keepalive
// information is shared between RPC2 and SFTP and exported to Venus, and
// (2) round-trip times are monitored with timestamp echoing (Jacobson) and
// used to adapt retransmission parameters. This package is that shared
// state: one Peer record per remote host accumulates RTT samples (Jacobson
// SRTT/RTTVAR with an RTO clamp), observed transfer throughput (a
// byte-weighted exponential average), and a last-heard timestamp updated by
// any traffic from either protocol. Venus reads the bandwidth estimate to
// size reintegration chunks (§4.3.5) and to evaluate the patience model
// (§4.4.4), and reads liveness instead of generating its own keepalives.
package netmon

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// RTO bounds. The minimum keeps retransmission sane on LANs; the maximum
// keeps a single backoff from writing off a modem that is merely busy.
const (
	MinRTO     = time.Second // RFC 6298 §2.4: SHOULD be one second
	MaxRTO     = 60 * time.Second
	InitialRTO = 3 * time.Second // before any RTT sample (RFC 6298 default)
)

// Monitor tracks quality estimates for every peer of one node.
type Monitor struct {
	clock simtime.Clock

	mu    sync.Mutex
	peers map[string]*Peer
	reg   *obs.Registry
	self  string // label distinguishing this node's gauges from other nodes sharing the registry
}

// NewMonitor returns an empty Monitor on clock.
func NewMonitor(clock simtime.Clock) *Monitor {
	return &Monitor{clock: clock, peers: make(map[string]*Peer)}
}

// Observe exports every peer's estimates — bandwidth, SRTT, RTO — as
// pull gauges on reg, labeled {node=self, peer=addr}. Peers learned
// later are registered as they appear. These gauges are the one exposed
// view of the estimator state: Venus and the experiments read the same
// Peer accessors the gauges wrap, so there is no second bookkeeping
// path to drift out of sync.
func (m *Monitor) Observe(reg *obs.Registry, self string) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	m.reg = reg
	m.self = self
	peers := make([]*Peer, 0, len(m.peers))
	for _, p := range m.peers {
		peers = append(peers, p)
	}
	m.mu.Unlock()
	for _, p := range peers {
		registerPeer(reg, self, p)
	}
}

// registerPeer publishes one peer's gauges. Called without m.mu held:
// registry registration takes the registry lock, and the gauge closures
// take only the peer lock.
func registerPeer(reg *obs.Registry, self string, p *Peer) {
	labels := []obs.Label{obs.L("node", self), obs.L("peer", p.addr)}
	reg.GaugeFunc("netmon_peer_bandwidth_bps", p.Bandwidth, labels...)
	reg.GaugeFunc("netmon_peer_srtt_us", func() int64 { return p.SRTT().Microseconds() }, labels...)
	reg.GaugeFunc("netmon_peer_rto_us", func() int64 { return p.RTO().Microseconds() }, labels...)
}

// Peer returns the record for addr, creating it on first use.
func (m *Monitor) Peer(addr string) *Peer {
	m.mu.Lock()
	p, ok := m.peers[addr]
	if !ok {
		p = &Peer{clock: m.clock, addr: addr}
		m.peers[addr] = p
	}
	reg, self := m.reg, m.self
	m.mu.Unlock()
	if !ok && reg != nil {
		registerPeer(reg, self, p)
	}
	return p
}

// Peers returns a snapshot of all known peer records.
func (m *Monitor) Peers() []*Peer {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Peer, 0, len(m.peers))
	for _, p := range m.peers {
		out = append(out, p)
	}
	return out
}

// Peer accumulates network quality estimates for one remote host.
type Peer struct {
	clock simtime.Clock
	addr  string

	mu        sync.Mutex
	srtt      time.Duration
	rttvar    time.Duration
	hasRTT    bool
	bwBits    float64 // bits/second estimate
	hasBW     bool
	lastHeard time.Time
	heardEver bool

	// The fastest request/reply exchange seen and the bytes it moved:
	// the path's fixed round-trip cost, see ObserveExchange.
	floor      time.Duration
	floorBytes int64
}

// Addr returns the peer's address.
func (p *Peer) Addr() string { return p.addr }

// ObserveRTT folds one round-trip sample into the Jacobson estimator.
// Samples from retransmitted packets are valid here because timestamp
// echoing identifies which copy the peer answered. One of these fires
// per RPC reply, so the estimator must stay allocation-free.
func (p *Peer) ObserveRTT(sample time.Duration) {
	if sample <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.hasRTT {
		p.srtt = sample
		p.rttvar = sample / 2
		p.hasRTT = true
		return
	}
	// RFC 6298 / Jacobson '88: g = 1/8, h = 1/4.
	diff := sample - p.srtt
	if diff < 0 {
		p.rttvar += (-diff - p.rttvar) / 4
	} else {
		p.rttvar += (diff - p.rttvar) / 4
	}
	p.srtt += diff / 8
}

// SRTT returns the smoothed RTT estimate (0 before any sample).
func (p *Peer) SRTT() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.srtt
}

// RTO returns the current retransmission timeout: SRTT + 4·RTTVAR clamped
// to [MinRTO, MaxRTO], or InitialRTO before any sample.
func (p *Peer) RTO() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.hasRTT {
		return InitialRTO
	}
	rto := p.srtt + 4*p.rttvar
	if rto < MinRTO {
		rto = MinRTO
	}
	if rto > MaxRTO {
		rto = MaxRTO
	}
	return rto
}

// ObserveTransfer folds one completed exchange (bytes moved in elapsed)
// into the bandwidth estimate. The sample's weight grows with its size, so
// a bulk SFTP transfer dominates chatter from small RPCs, whose apparent
// throughput is mostly round-trip latency.
func (p *Peer) ObserveTransfer(bytes int64, elapsed time.Duration) {
	if bytes <= 0 || elapsed <= 0 {
		return
	}
	sample := float64(bytes*8) / elapsed.Seconds()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.hasBW {
		p.bwBits = sample
		p.hasBW = true
		return
	}
	weight := 0.5 * float64(bytes) / float64(bytes+16<<10)
	p.bwBits += weight * (sample - p.bwBits)
}

// ObserveExchange folds one request/reply round trip into the bandwidth
// estimate. A round trip costs the path's fixed latency plus the time its
// bytes spend on the wire, and for the few dozen bytes most RPCs carry
// the latency is nearly all of it: bytes/elapsed would read a 10 Mb/s
// Ethernet with a 1 ms round trip as about 0.5 Mb/s. So the fastest
// exchange seen stands for the fixed cost (real RPC2 keeps the same
// per-host latency estimate beside its bandwidth estimate), and only what
// a later exchange moved and took beyond it counts as a transfer.
func (p *Peer) ObserveExchange(bytes int64, elapsed time.Duration) {
	if bytes <= 0 || elapsed <= 0 {
		return
	}
	p.mu.Lock()
	if p.floor == 0 || elapsed < p.floor {
		p.floor, p.floorBytes = elapsed, bytes
		p.mu.Unlock()
		return
	}
	bytes, elapsed = bytes-p.floorBytes, elapsed-p.floor
	p.mu.Unlock()
	p.ObserveTransfer(bytes, elapsed)
}

// Bandwidth returns the estimated path bandwidth in bits per second, or 0
// if nothing has been observed yet.
func (p *Peer) Bandwidth() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.bwBits)
}

// SetBandwidth overrides the estimate; used when an out-of-band hint is
// available (e.g. the user names the attached network) and by tests.
func (p *Peer) SetBandwidth(bitsPerSec int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bwBits = float64(bitsPerSec)
	p.hasBW = bitsPerSec > 0
}

// Heard records that any traffic (RPC2 reply, SFTP data or ack, probe) was
// received from the peer. This is the unified keepalive of §4.1; it
// fires per received packet.
func (p *Peer) Heard() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastHeard = p.clock.Now()
	p.heardEver = true
}

// LastHeard returns the time of the most recent traffic from the peer and
// whether any was ever heard.
func (p *Peer) LastHeard() (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastHeard, p.heardEver
}

// Alive reports whether the peer has been heard from within window.
func (p *Peer) Alive(window time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.heardEver && p.clock.Now().Sub(p.lastHeard) <= window
}

// Forget clears all estimates (used when a mobile client knows it has
// changed networks and history is meaningless).
func (p *Peer) Forget() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.srtt, p.rttvar, p.hasRTT = 0, 0, false
	p.bwBits, p.hasBW = 0, false
	p.floor, p.floorBytes = 0, 0
	p.heardEver = false
}
