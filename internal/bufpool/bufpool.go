// Package bufpool recycles the byte buffers of the wire hot path. It
// keeps two pools.
//
// Scratch buffers (Get/Put) are for framing by append: every RPC2 packet
// and SFTP fragment is built in one and handed to a send path that does
// not retain it. Both network backends copy the payload out before Send
// returns, so a buffer goes back to the pool immediately after Send.
//
// Frames (Frame/Free) are for bytes that outlive one call but not the
// message: a datagram in flight in the emulator, an SFTP reassembly
// buffer, an encoded request or reply body. Frames come in size classes,
// four per octave, so a frame is less than a quarter larger than what
// was asked for; a class's frames are interchangeable, and once warm a
// Frame/Free cycle allocates nothing. Whoever can name a frame's last
// reader frees it there (the fbufs idea: Druschel and Peterson, SOSP
// '93); a frame nobody frees is left to the garbage collector like any
// slice, so a missed Free costs an allocation, never correctness. Bytes
// that outlive the message — a decoded file's contents, a cache entry —
// are copied out of the frame at the trust edge (DESIGN.md §4.11), never
// lent from it.
//
// In a test binary Free fills the frame with Poison before pooling it,
// so a reader that outlives its frame sees Poison instead of a plausible
// message, and every test doubles as a use-after-free check.
//
// What the pools save is measured, not assumed: BenchmarkAllocBufpoolCycle
// and BenchmarkAllocFrameCycle pin a warm cycle at zero allocations, and
// the alloc fences of the wire paths that use them (DESIGN.md §7.2) pin
// their callers.
package bufpool

import (
	"flag"
	"math/bits"
	"sync"
	"unsafe"
)

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

// Frame size classes: minFrame, then four per octave up to maxFrame. A
// larger frame is allocated exactly and left to the garbage collector.
const (
	minShift = 6
	maxShift = 24
	minFrame = 1 << minShift
	maxFrame = 1 << maxShift
	classes  = 1 + (maxShift-minShift)*4
)

// frames holds one pool per class. A frame is pooled as the pointer to
// its first byte — pointer-shaped, so the interface holds it without
// boxing — and rebuilt from its class's size on the way out.
var frames [classes]sync.Pool

// Poison is the byte a test binary fills a freed frame with.
const Poison byte = 0xDB

var (
	poisonOnce sync.Once
	poison     bool
)

// poisoning reports whether this is a test binary, by the flag each one
// registers before its tests run (and so before the first Free). It is
// not testing.Testing(): linking package testing into every program made
// math/rand's Read 30 % slower in cmd/codaperf (20 -> 26 ms for 18 MB on
// a 2-vCPU Xeon VM, in isolation), which its set-up phase measures.
func poisoning() bool {
	poisonOnce.Do(func() { poison = flag.Lookup("test.v") != nil })
	return poison
}

// class returns the index and size of the smallest class that holds n
// bytes. Above minFrame the size is (q/4)·2^b for the octave 2^b < n ≤
// 2^(b+1) and q in 5..8, so it is less than 1.25n.
func class(n int) (i, size int) {
	if n <= minFrame {
		return 0, minFrame
	}
	b := bits.Len(uint(n - 1)) // 2^(b-1) < n <= 2^b
	shift := b - 3             // a quarter of the octave
	q := (n-1)>>shift + 1      // 5..8
	return 1 + (b-minShift-1)*4 + q - 5, q << shift
}

// Frame returns a slice of length n from the frame pool. Its contents
// are unspecified: write before reading. Hand it back with Free once its
// last reader is done.
func Frame(n int) []byte {
	if n > maxFrame {
		return make([]byte, n)
	}
	i, size := class(n)
	if p, _ := frames[i].Get().(unsafe.Pointer); p != nil {
		return unsafe.Slice((*byte)(p), size)[:n]
	}
	return make([]byte, n, size)
}

// Free recycles b's backing array, from b's first byte to its capacity.
// The caller must own all of it and must not touch it (or anything
// aliasing it) afterwards. A slice whose capacity is no class size (nil,
// most sub-slices and makes) is left to the garbage collector and one
// whose capacity is a class size is pooled, whatever its origin, so Free
// is safe on any slice the caller owns.
func Free(b []byte) {
	c := cap(b)
	if c < minFrame || c > maxFrame {
		return
	}
	i, size := class(c)
	if size != c {
		return
	}
	b = b[:c]
	if poisoning() {
		b[0] = Poison
		for j := 1; j < c; j *= 2 {
			copy(b[j:], b[:j])
		}
	}
	frames[i].Put(unsafe.Pointer(unsafe.SliceData(b)))
}
