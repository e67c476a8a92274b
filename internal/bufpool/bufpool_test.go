package bufpool

import "testing"

func TestGetCapacityAndReuse(t *testing.T) {
	bp := Get(64)
	if len(*bp) != 0 {
		t.Fatalf("Get returned non-empty buffer: len %d", len(*bp))
	}
	if cap(*bp) < 64 {
		t.Fatalf("Get(64) capacity %d < 64", cap(*bp))
	}
	*bp = append(*bp, "hello"...)
	Put(bp)

	again := Get(8)
	if len(*again) != 0 {
		t.Fatalf("recycled buffer not reset: len %d", len(*again))
	}
	Put(again)
}

func TestGetGrowsBeyondDefault(t *testing.T) {
	bp := Get(defaultCap * 4)
	if cap(*bp) < defaultCap*4 {
		t.Fatalf("Get did not grow: cap %d", cap(*bp))
	}
	Put(bp)
}

// BenchmarkAllocBufpoolCycle pins the pool cycle itself at zero
// steady-state allocations: a Get/append/Put round trip must not touch
// the heap, or every framed packet pays for it.
func BenchmarkAllocBufpoolCycle(b *testing.B) {
	payload := make([]byte, 1200)
	Put(Get(27 + len(payload))) // the pool's first buffer is set-up, not steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := Get(27 + len(payload))
		*bp = append(*bp, payload...)
		Put(bp)
	}
}
