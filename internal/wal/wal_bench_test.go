package wal

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/crashfs"
	"repro/internal/simtime"
)

// BenchmarkWALAppend measures the cost of one journaled mutation under
// each fsync policy, on the real filesystem. The spread between
// SyncEachRecord and SyncInterval is the latency the ~30s flush window
// (Coda's RVM discipline, §4.3.1) buys back.
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 256)
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"each", Options{Policy: SyncEachRecord}},
		{"interval30s", Options{Policy: SyncInterval, Interval: 30 * time.Second}},
		{"none", Options{Policy: SyncNone}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := bc.opts
			opts.FS = crashfs.OS{}
			opts.Dir = b.TempDir()
			if opts.Policy == SyncInterval {
				sim := simtime.NewSim(simtime.Epoch1995)
				opts.Clock = sim
				sim.Run(func() { runAppendBench(b, opts, payload) })
				return
			}
			runAppendBench(b, opts, payload)
		})
	}
}

func runAppendBench(b *testing.B, opts Options, payload []byte) {
	b.Helper()
	w, _, err := Open(opts, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

const benchRecords = 10_000

// BenchmarkRecoveryReplay measures a cold start that replays a full WAL
// of benchRecords mutations into the apply function.
func BenchmarkRecoveryReplay(b *testing.B) {
	fs := crashfs.NewMem()
	opts := Options{FS: fs, Dir: "j", Policy: SyncNone, SegmentBytes: 1 << 20}
	w, _, err := Open(opts, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchRecords; i++ {
		if err := w.Append([]byte(fmt.Sprintf("mutation-%06d-%0240d", i, i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		r, stats, err := Open(opts, func(p []byte) error { n++; return nil })
		if err != nil {
			b.Fatal(err)
		}
		if n != benchRecords || stats.Records != benchRecords {
			b.Fatalf("replayed %d records (stats %+v)", n, stats)
		}
		r.Close()
	}
}

// BenchmarkRecoverySnapshotOnly is the baseline: a cold start that only
// streams a snapshot of the same total size, with no per-record framing
// or CRC work. The gap against BenchmarkRecoveryReplay is the price of
// keeping the journal instead of checkpointing on every mutation.
func BenchmarkRecoverySnapshotOnly(b *testing.B) {
	fs := crashfs.NewMem()
	if err := fs.MkdirAll("s"); err != nil {
		b.Fatal(err)
	}
	f, err := fs.Create("s/snapshot")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchRecords; i++ {
		if _, err := f.Write([]byte(fmt.Sprintf("mutation-%06d-%0240d", i, i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		b.Fatal(err)
	}
	f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := fs.Open("s/snapshot")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, g); err != nil {
			b.Fatal(err)
		}
		g.Close()
	}
}
