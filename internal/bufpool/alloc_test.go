//go:build !race

package bufpool

import "testing"

// The pool cycles' alloc fences. Under the race detector the scratch
// pool, a sync.Pool, drops items at random (the frame lists keep theirs),
// so these run only without it.

// TestAllocBufpoolCycle pins the pool cycle itself at zero steady-state
// allocations: a Get/append/Put round trip must not touch the heap, or
// every framed packet pays for it.
func TestAllocBufpoolCycle(t *testing.T) {
	payload := make([]byte, 1200)
	Put(Get(27 + len(payload))) // the pool's first buffer is set-up, not steady state
	allocs := testing.AllocsPerRun(200, func() {
		bp := Get(27 + len(payload))
		*bp = append(*bp, payload...)
		Put(bp)
	})
	if allocs > 0 {
		t.Errorf("Get/append/Put: %v allocs, want 0", allocs)
	}
}

// TestAllocFrameCycle pins a frame's round trip — Frame, fill, Free, the
// path of every datagram through the emulator and every reassembly buffer
// — at zero steady-state allocations: a frame is pooled as a bare
// pointer, never boxed.
func TestAllocFrameCycle(t *testing.T) {
	payload := make([]byte, 1207)
	Free(Frame(len(payload))) // the class's first frame is set-up, not steady state
	allocs := testing.AllocsPerRun(200, func() {
		f := Frame(len(payload))
		copy(f, payload)
		Free(f)
	})
	if allocs > 0 {
		t.Errorf("Frame/copy/Free: %v allocs, want 0", allocs)
	}
}
