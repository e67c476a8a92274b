package bufpool

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

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

// TestFrameClassRounding: a frame has exactly the length asked for and
// the capacity of its class, which is the smallest class that holds it,
// at least minFrame and, above that, less than a quarter more than n.
// Classes are strictly increasing, four to an octave.
func TestFrameClassRounding(t *testing.T) {
	defer drain()
	prevI, prevSize := 0, minFrame
	for n := 0; n <= maxFrame; n = next(n) {
		i, size := class(n)
		if size < n || size < minFrame || (n > minFrame && 4*size >= 5*n) {
			t.Fatalf("class(%d) = %d: not within 25%% above n", n, size)
		}
		if size != prevSize && (i != prevI+1 || size < prevSize) {
			t.Fatalf("class(%d) = #%d of %d bytes after #%d of %d", n, i, size, prevI, prevSize)
		}
		prevI, prevSize = i, size
		b := Frame(n)
		if len(b) != n || cap(b) != size {
			t.Fatalf("Frame(%d): len %d cap %d, want len %d cap %d", n, len(b), cap(b), n, size)
		}
		Free(b)
	}
	if i, size := class(maxFrame); i != classes-1 || size != maxFrame {
		t.Fatalf("class(maxFrame) = %d, %d; want the last class %d", i, size, classes-1)
	}
	for shift := minShift; shift < maxShift; shift++ {
		lo, _ := class(1 << shift)
		hi, _ := class(2 << shift)
		if hi-lo != 4 {
			t.Fatalf("octave (%d, %d]: %d classes, want 4", 1<<shift, 2<<shift, hi-lo)
		}
	}
	if b := Frame(maxFrame + 1); len(b) != maxFrame+1 {
		t.Fatalf("Frame beyond the largest class: len %d", len(b))
	}
}

// next steps through every size near a class boundary and samples the
// rest, so the rounding test covers the whole range in a few thousand
// steps.
func next(n int) int {
	if n < 4096 {
		return n + 1
	}
	if _, size := class(n); size-n > 2 {
		return size - 1
	}
	return n + 1
}

// TestFreeForeignOrOddCapacity: Free accepts any slice its caller owns.
// One whose capacity is no class size — nil, a sub-slice, a make of an
// odd size, one too small or too large for any class — is left alone;
// a foreign slice of a class capacity is pooled like a frame, from its
// first byte to its capacity and never the bytes before it.
func TestFreeForeignOrOddCapacity(t *testing.T) {
	for name, b := range map[string][]byte{
		"nil":             nil,
		"empty":           {},
		"below minFrame":  make([]byte, 10),
		"odd capacity":    make([]byte, 100, 101),
		"sub-slice":       Frame(1000)[3:],
		"beyond maxFrame": make([]byte, 0, maxFrame+minFrame),
	} {
		orig := append([]byte(nil), b[:cap(b)]...)
		Free(b)
		if !bytes.Equal(b[:cap(b)], orig) {
			t.Errorf("%s: Free wrote into a slice it does not pool", name)
		}
	}

	whole := bytes.Repeat([]byte("k"), 8+80)
	Free(whole[8:]) // capacity 80: a class
	if !bytes.Equal(whole[:8], []byte("kkkkkkkk")) {
		t.Errorf("Free reached before the slice it was given: % x", whole[:8])
	}
	if !bytes.Equal(whole[8:], bytes.Repeat([]byte{Poison}, 80)) {
		t.Errorf("a foreign slice of a class capacity was not pooled: % x", whole[8:])
	}
}

// TestFreePoisons: in a test binary a freed frame reads as Poison, all
// of it, so a reader that outlives its frame cannot mistake it for a
// message.
func TestFreePoisons(t *testing.T) {
	b := Frame(1000)
	for i := range b {
		b[i] = 'm'
	}
	kept := b[:cap(b)]
	Free(b)
	for i, c := range kept {
		if c != Poison {
			t.Fatalf("byte %d of a freed frame is %#x, want Poison %#x", i, c, Poison)
		}
	}
}

// drain empties every free list, as if each listed frame had been taken
// and dropped, so a test starts with every class's whole budget.
func drain() {
	for i := range frames {
		frames[i].mu.Lock()
		frames[i].stack = nil
		frames[i].mu.Unlock()
	}
}

// listed is how many frames of size bytes are listed.
func listed(size int) int {
	i, _ := class(size)
	frames[i].mu.Lock()
	defer frames[i].mu.Unlock()
	return len(frames[i].stack)
}

// TestFrameSurvivesCollection: a freed frame waits on its class's list
// through garbage collections, where a sync.Pool would have been emptied
// within two, and comes back as the same backing array without an
// allocation.
func TestFrameSurvivesCollection(t *testing.T) {
	drain()
	f := Frame(3000)
	want := unsafe.SliceData(f)
	Free(f)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := Frame(3000)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("Frame after two collections: %d allocs, want 0", allocs)
	}
	if unsafe.SliceData(got) != want {
		t.Errorf("Frame after two collections returned a new backing array")
	}
	Free(got)
}

// TestFrameRetentionBound: a class's list never holds more than its
// budget. Frees past it leave their frames to the collector, a frame
// above listMax is never listed, and a class at its budget lists again
// once a frame is taken.
func TestFrameRetentionBound(t *testing.T) {
	drain()
	defer drain()
	for _, size := range []int{minFrame, 1280, defaultCap, 2048, 80 << 10, listMax, 320 << 10} {
		for range budget(size) + 4 {
			Free(make([]byte, size))
		}
		if n := listed(size); n != budget(size) {
			t.Errorf("%d frees of %d bytes: %d listed, want the budget %d", budget(size)+4, size, n, budget(size))
		}
		if budget(size) == 0 {
			continue
		}
		Frame(size)
		if Free(make([]byte, size)); listed(size) != budget(size) {
			t.Errorf("a %d-byte frame freed under the budget was not listed: %d listed, want %d", size, listed(size), budget(size))
		}
	}
}

// TestFrameClassNotStarved: one class at its budget takes nothing from
// another's. Sixteen MiB of 256 KiB frames - all that one budget across
// every class once allowed - list only their class's 32, and a datagram
// frame freed after them is still listed. Before the per-class budgets,
// the big frames filled the shared cap and the datagram was dropped.
func TestFrameClassNotStarved(t *testing.T) {
	drain()
	defer drain()
	const big = 256 << 10
	for range 16 << 20 / big {
		Free(make([]byte, big))
	}
	if n := listed(big); n != bodyFrames {
		t.Errorf("%d frees of %d bytes: %d listed, want %d", 16<<20/big, big, n, bodyFrames)
	}
	if Free(make([]byte, 1280)); listed(1280) != 1 {
		t.Errorf("a 1280-byte frame freed after a full class was not listed")
	}
}

// TestFrameListBound: every class at its budget at once stays under the
// 70 MiB the package doc states.
func TestFrameListBound(t *testing.T) {
	total := 0
	for n := minFrame; n <= maxFrame; n++ {
		_, size := class(n)
		total += budget(size) * size
		n = size
	}
	if total >= 70<<20 {
		t.Errorf("the lists can hold %d bytes, over the 70 MiB the package doc states", total)
	}
}

// TestFrameConcurrentCycle: goroutines take, fill, check and free frames
// of mixed classes at once, two held at a time. Each sees only its own
// bytes in the frames it holds, and the lists stay within their bound.
func TestFrameConcurrentCycle(t *testing.T) {
	sizes := []int{100, 1300, 1300, 4000, 70 << 10}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pat := bytes.Repeat([]byte{byte(g)}, 70<<10)
			var mine [2][]byte
			for k := range 400 {
				f := Frame(sizes[(g+k)%len(sizes)])
				copy(f, pat)
				if old := mine[k%2]; old != nil {
					if !bytes.Equal(old, pat[:len(old)]) {
						t.Errorf("goroutine %d: a %d-byte frame it holds was overwritten", g, len(old))
						return
					}
					Free(old)
				}
				mine[k%2] = f
			}
			Free(mine[0])
			Free(mine[1])
		}()
	}
	wg.Wait()
	for _, size := range sizes {
		if listed(size) > budget(size) {
			t.Errorf("after the cycles %d-byte frames: %d listed, over the budget %d", size, listed(size), budget(size))
		}
	}
}

// mustPanic runs fn and fails t unless it panics with a message that
// contains want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("panic %v, want one containing %q", r, want)
		}
	}()
	fn()
}

// TestFreeTwicePanics: in a test binary a second Free of a listed frame
// panics, where it would have handed one frame to two owners.
func TestFreeTwicePanics(t *testing.T) {
	f := Frame(5000)
	Free(f)
	mustPanic(t, "a 5120-byte frame freed twice", func() { Free(f) })
	if g, h := Frame(5000), Frame(5000); unsafe.SliceData(g) == unsafe.SliceData(h) {
		t.Errorf("a frame freed twice was listed twice")
	}
}

// TestFrameWrittenAfterFreePanics: in a test binary Frame panics on a
// listed frame that was written after its Free, naming the frame's size
// and the first byte written.
func TestFrameWrittenAfterFreePanics(t *testing.T) {
	f := Frame(6000)
	Free(f)
	f[17] = 'x' // the write after Free under test
	mustPanic(t, "a freed 6144-byte frame was written at offset 17", func() { Frame(6000) })
}
