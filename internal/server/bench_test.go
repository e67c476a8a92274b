package server

import (
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/crashfs"
	"repro/internal/obs"
	"repro/internal/wal"
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
	if err := journalBatchLocked(v, "bench-client", recs, obs.SpanContext{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := journalBatchLocked(v, "bench-client", recs, obs.SpanContext{}); err != nil {
			b.Fatal(err)
		}
	}
}
