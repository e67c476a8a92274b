//go:build !race

package server

import (
	"runtime"
	"runtime/debug"
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
// into the volume WAL. The entry is encoded behind the WAL's header in a
// pooled buffer, which the WAL writes as is, so the steady state
// allocates nothing but the amortized growth of the retained
// replication log.
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
	// Warm the buffer pool so first-use growth is not charged to the
	// steady state.
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

// TestAllocFragmentedStore pins a store pre-shipped as fragments
// (§4.3.5): about 100 KB in 36 KB fragments, each PutFragment and then
// the Reintegrate that attaches them decoded and answered through handle.
// Each fragment's data is decoded lent and appended into one buffer sized
// at the file's length, which the store adopts, so the server allocates
// the file about once: ≤ 1.1 bytes per file byte for the whole store. A
// copying decode adds a byte per byte, append's regrowth about one more.
// A first fragment that claims 1 GiB and carries 1 KB gets a buffer of
// 4 KB, whatever the claim: capacity follows the bytes received.
func TestAllocFragmentedStore(t *testing.T) {
	const (
		size     = 100 << 10
		fragSize = 36 << 10
		runs     = 20
	)
	w := newWorld()
	if _, err := w.srv.CreateVolume("usr"); err != nil {
		t.Fatal(err)
	}
	st, err := w.srv.WriteFile("usr", "big.dat", nil)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, size)
	var bodies [][]byte
	for off := 0; off < size; off += fragSize {
		end := min(off+fragSize, size)
		b, err := wire.Encode(wire.PutFragment{Transfer: 1, Offset: int64(off), Total: size, Data: content[off:end]})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	// Seq 0 is never taken for a retransmit, and after the first store the
	// object's last author is this client, so one request stays valid.
	reint, err := wire.Encode(wire.Reintegrate{
		Volume:    st.FID.Volume,
		Records:   []cml.Record{{Kind: cml.Store, FID: st.FID, PrevVersion: st.Version, Length: size}},
		Fragments: map[int]uint64{0: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	forged, err := wire.Encode(wire.PutFragment{Transfer: 2, Total: 1 << 30, Data: make([]byte, 1<<10)})
	if err != nil {
		t.Fatal(err)
	}
	w.sim.Run(func() {
		defer w.srv.Close()
		serve := func(body []byte) {
			rep, err := w.srv.handle("bench-client", obs.SpanContext{}, body)
			if err != nil {
				t.Fatal(err)
			}
			bufpool.Free(rep)
		}
		store := func() {
			for _, b := range bodies {
				serve(b)
			}
			serve(reint)
		}
		store()
		if perByte := float64(bytesPerRun(runs, store)) / size; perByte > 1.1 {
			t.Errorf("fragmented %d-byte store: %.2f bytes allocated per file byte, want ≤ 1.1", size, perByte)
		}
		if got, err := w.srv.ReadFile("usr", "big.dat"); err != nil || len(got) != size {
			t.Fatalf("after the stores: %d bytes, %v", len(got), err)
		}

		drop := []fragKey{{client: "bench-client", transfer: 2}}
		claim := func() {
			serve(forged)
			w.srv.dropFragments(drop)
		}
		claim()
		// 4 KiB of buffer; the rest is the decoded request, the fragBuf
		// and the reply's boxed count (4,216 B in all).
		if n := bytesPerRun(runs, claim); n > 4<<10+256 {
			t.Errorf("a 1 KB fragment claiming 1 GiB: %d bytes allocated, want ≤ 4 KB + 256 B", n)
		}
	})
}

// bytesPerRun is testing.AllocsPerRun for bytes: what one call of f
// allocates, averaged over runs calls. The collector is off meanwhile: a
// collection empties the pool behind bufpool, and refilling a frame (the
// journal's, the size of the batch) is no cost of f's. Turning it off
// lets a cycle already running finish first, and that cycle may have
// emptied the pool, so one call of f refills it before the count starts.
// One P for the whole count: a frame freed into one P's private pool
// slot is out of reach of a call that runs on another.
func bytesPerRun(runs int, f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
