package bufpool

import (
	"bytes"
	"testing"
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
