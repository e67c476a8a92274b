//go:build !race

package server

import (
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/crashfs"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The server's alloc fences. Under the race detector sync.Pool drops
// items at random, so these run only without it.

// TestAllocJournalBatch pins the framing of one applied mutation batch
// into the volume WAL. The payload is appended into a pooled buffer and
// the WAL frames into its own scratch, so the steady state allocates
// nothing but the amortized growth of the retained replication log.
func TestAllocJournalBatch(t *testing.T) {
	fs := crashfs.NewMem()
	v := newVolume(1, "bench", time.Unix(0, 0))
	v.retainLog = true // a group member's volume: the suffix is kept for peers
	if _, err := v.log.Attach(wal.Options{FS: fs, Dir: "j", Policy: wal.SyncNone, SegmentBytes: 1 << 30}, nil); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = v.log.Detach().Close() }()

	recs := []cml.Record{{
		Kind:   cml.Store,
		FID:    codafs.FID{Volume: 1, Vnode: 2},
		Parent: codafs.FID{Volume: 1, Vnode: 1},
		Name:   "file",
		Owner:  "bench-client",
		Data:   make([]byte, 256),
		Length: 256,
	}}
	// Warm the buffer pool and the WAL scratch so first-use growth is not
	// charged to the steady state.
	journal := func() {
		if err := journalBatchLocked(v, "bench-client", recs, batchLive, 0, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	journal()
	if allocs := testing.AllocsPerRun(200, journal); allocs > 0 {
		t.Errorf("journal one batch: %v allocs, want 0", allocs)
	}
}

// TestAllocServerMutate pins one connected-mode update end to end inside
// the server: a 4 KB StoreOp decoded, admitted and staged in place,
// framed into the (detached) journal, committed and answered through
// handle, whose reply frame is freed as the rpc2 Node frees it once the
// reply leaves its cache.
func TestAllocServerMutate(t *testing.T) {
	w := newWorld()
	if _, err := w.srv.CreateVolume("usr"); err != nil {
		t.Fatal(err)
	}
	st, err := w.srv.WriteFile("usr", "f.dat", make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	// After the first store the object's last author is this client, so
	// one encoded request stays valid whatever the version has become.
	body, err := wire.Encode(wire.StoreOp{FID: st.FID, Data: make([]byte, 4096), PrevVersion: st.Version})
	if err != nil {
		t.Fatal(err)
	}
	w.sim.Run(func() {
		defer w.srv.Close()
		mutate := func() {
			rep, err := w.srv.handle("bench-client", obs.SpanContext{}, body)
			if err != nil {
				t.Fatal(err)
			}
			bufpool.Free(rep)
		}
		mutate()
		if allocs := testing.AllocsPerRun(200, mutate); allocs > 6 {
			t.Errorf("StoreOp through handle: %v allocs, want ≤ 6", allocs)
		}
	})
}
