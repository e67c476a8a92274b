//go:build !race

package wal

import (
	"testing"

	"repro/internal/crashfs"
)

// TestAllocWALAppend pins the append framing path at zero steady-state
// heap allocations: the frame is built in the per-WAL scratch buffer
// (amortized growth only) and the in-memory filesystem copies it on
// Write. SyncNone isolates framing from fsync cost. The race detector
// changes what allocates, so this runs only without it.
func TestAllocWALAppend(t *testing.T) {
	fs := crashfs.NewMem()
	w, _, err := Open(Options{FS: fs, Dir: "j", Policy: SyncNone, SegmentBytes: 1 << 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, 256)
	appendOne := func() {
		if err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	appendOne() // warm the scratch buffer
	if allocs := testing.AllocsPerRun(200, appendOne); allocs > 0 {
		t.Errorf("Append: %v allocs per record, want 0", allocs)
	}
}
