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

// BenchmarkAllocJournalBatch measures the framing of one applied
// mutation batch into the volume WAL. The payload is appended into a
// pooled buffer and the WAL frames into its own scratch, so the steady
// state allocates nothing but the amortized growth of the retained
// replication log; benchgate fails the build if AllocsPerOp grows past
// bench_baseline.json.
func BenchmarkAllocJournalBatch(b *testing.B) {
	fs := crashfs.NewMem()
	v := newVolume(1, "bench", time.Unix(0, 0))
	v.retainLog = true // a group member's volume: the suffix is kept for peers
	if _, err := v.log.Attach(wal.Options{FS: fs, Dir: "j", Policy: wal.SyncNone, SegmentBytes: 1 << 30}, nil); err != nil {
		b.Fatal(err)
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
	if err := journalBatchLocked(v, "bench-client", recs, batchLive, 0, obs.SpanContext{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := journalBatchLocked(v, "bench-client", recs, batchLive, 0, obs.SpanContext{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocServerMutate pins one connected-mode update end to end
// inside the server: a 4 KB StoreOp decoded, validated against the
// overlay, framed into the (detached) journal, committed and answered
// through handle, whose reply frame is freed as the rpc2 Node frees it
// once the reply leaves its cache. Enforced by benchgate against
// bench_baseline.json.
func BenchmarkAllocServerMutate(b *testing.B) {
	w := newWorld()
	if _, err := w.srv.CreateVolume("usr"); err != nil {
		b.Fatal(err)
	}
	st, err := w.srv.WriteFile("usr", "f.dat", make([]byte, 4096))
	if err != nil {
		b.Fatal(err)
	}
	// After the first store the object's last author is this client, so
	// one encoded request stays valid whatever the version has become.
	body, err := wire.Encode(wire.StoreOp{FID: st.FID, Data: make([]byte, 4096), PrevVersion: st.Version})
	if err != nil {
		b.Fatal(err)
	}
	w.sim.Run(func() {
		defer w.srv.Close()
		mutate := func() {
			rep, err := w.srv.handle("bench-client", obs.SpanContext{}, body)
			if err != nil {
				b.Fatal(err)
			}
			bufpool.Free(rep)
		}
		mutate()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mutate()
		}
	})
}
