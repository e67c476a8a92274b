// Package bufpool recycles the byte buffers of the wire hot path.
//
// Every RPC2 packet and SFTP fragment used to be framed into a fresh
// make([]byte, header+len(body)); at modem speeds that is noise, but at
// the LAN rates the scale work targets it is one garbage buffer per
// message on both ends of every transfer. The pool bounds that to a
// handful of warm buffers per P. Both network backends copy the payload
// out before Send returns (netsim duplicates it into the simulated
// packet, the UDP adapter hands it to the kernel), so a buffer can be
// returned to the pool immediately after Send.
//
// The allocscan analyzer recognizes Get/Put as pooled sinks: memory
// obtained here does not count as an allocation on a
// //codalint:hotpath function.
package bufpool

import "sync"

// defaultCap fits the largest framed datagram either protocol emits: an
// SFTP data packet (at most 39 bytes of header + a 1200-byte fragment),
// with headroom.
const defaultCap = 1536

var pool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, defaultCap)
		return &b
	},
}

// Get returns an empty (length-zero) buffer with capacity at least n.
// Append into it, hand the result to a send path that does not retain
// it, then Put it back.
func Get(n int) *[]byte {
	bp := pool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	return bp
}

// Put recycles a buffer obtained from Get. The caller must not touch
// the slice (or anything aliasing it) afterwards.
func Put(bp *[]byte) {
	*bp = (*bp)[:0]
	pool.Put(bp)
}
