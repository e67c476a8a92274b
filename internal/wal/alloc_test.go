//go:build !race

package wal

import (
	"testing"

	"repro/internal/crashfs"
)

// TestAllocWALAppend pins both append paths at zero steady-state heap
// allocations: AppendSpan writes the caller's frame as it is, Append
// frames its payload in a pooled buffer, and the in-memory filesystem
// copies the frame on Write. SyncNone isolates framing from fsync cost.
// The race detector changes what allocates, so this runs only without
// it.
func TestAllocWALAppend(t *testing.T) {
	fs := crashfs.NewMem()
	w, _, err := Open(Options{FS: fs, Dir: "j", Policy: SyncNone, SegmentBytes: 1 << 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	frame := make([]byte, FrameHeader+256)
	if allocs := testing.AllocsPerRun(200, func() {
		if err := w.AppendSpan(frame, untraced); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("AppendSpan: %v allocs per record, want 0", allocs)
	}
	payload := frame[FrameHeader:]
	if allocs := testing.AllocsPerRun(200, func() {
		if err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("Append: %v allocs per record, want 0", allocs)
	}
}
