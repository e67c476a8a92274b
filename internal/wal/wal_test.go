package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/crashfs"
	"repro/internal/simtime"
)

func openCollect(t *testing.T, opts Options) (*WAL, [][]byte, RecoveryStats) {
	t.Helper()
	var got [][]byte
	w, stats, err := Open(opts, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, got, stats
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	fs := crashfs.NewMem()
	opts := Options{FS: fs, Dir: "j", Policy: SyncEachRecord}

	w, got, _ := openCollect(t, opts)
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("record-%03d-%s", i, string(make([]byte, i*7))))
		want = append(want, p)
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	fs.Crash()
	fs.Reboot()

	w2, got, stats := openCollect(t, opts)
	defer w2.Close()
	if stats.TornBytes != 0 || stats.Records != 20 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	fs := crashfs.NewMem()
	opts := Options{FS: fs, Dir: "j", Policy: SyncEachRecord, SegmentBytes: 64}
	w, _, _ := openCollect(t, opts)
	for i := 0; i < 10; i++ {
		if err := w.Append(bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("j")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 5 {
		t.Fatalf("expected rotation to produce many segments, got %v", names)
	}
	w2, got, stats := openCollect(t, opts)
	defer w2.Close()
	if stats.Records != 10 || len(got) != 10 {
		t.Fatalf("replay across segments: %+v, %d records", stats, len(got))
	}
	for i, p := range got {
		if len(p) != 40 || p[0] != byte(i) {
			t.Fatalf("record %d corrupted: %q", i, p)
		}
	}
}

// TestTornTailTruncated: a crash mid-frame leaves a torn tail; recovery
// replays the intact prefix, truncates the tear, and a subsequent
// append+recover round trip is clean.
func TestTornTailTruncated(t *testing.T) {
	// The in-flight frame is 8 header + 11 payload bytes; keep ranges
	// over every strictly-partial survival (keep == 19 would persist the
	// whole frame, which recovery rightly replays).
	for keep := 0; keep < 19; keep++ {
		fs := crashfs.NewMem()
		opts := Options{FS: fs, Dir: "j", Policy: SyncEachRecord}
		w, _, _ := openCollect(t, opts)
		for i := 0; i < 5; i++ {
			if err := w.Append([]byte(fmt.Sprintf("intact-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		// The 6th append's write is the power cut; keep bytes of its
		// frame survive as a torn tail.
		fs.ArmCrash(1, keep)
		if err := w.Append([]byte("torn-record")); !errors.Is(err, crashfs.ErrCrashed) {
			t.Fatalf("keep=%d: crashing append returned %v", keep, err)
		}
		fs.Reboot()

		w2, got, stats := openCollect(t, opts)
		if len(got) != 5 || stats.Records != 5 {
			t.Fatalf("keep=%d: replayed %d records (stats %+v), want 5", keep, len(got), stats)
		}
		if keep > 0 && stats.TornBytes == 0 {
			t.Fatalf("keep=%d: expected torn bytes in stats", keep)
		}
		for i, p := range got {
			if want := fmt.Sprintf("intact-%d", i); string(p) != want {
				t.Fatalf("keep=%d record %d: got %q want %q", keep, i, p, want)
			}
		}
		// The log must be append-ready after truncation.
		if err := w2.Append([]byte("after-recovery")); err != nil {
			t.Fatal(err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		w3, got, _ := openCollect(t, opts)
		if len(got) != 6 || string(got[5]) != "after-recovery" {
			t.Fatalf("keep=%d: post-recovery append lost: %d records", keep, len(got))
		}
		w3.Close()
	}
}

// TestCorruptMiddleStopsReplay: a flipped byte in an early frame stops
// replay at that frame; later segments are dropped, not replayed out of
// order.
func TestCorruptMiddleStopsReplay(t *testing.T) {
	fs := crashfs.NewMem()
	opts := Options{FS: fs, Dir: "j", Policy: SyncEachRecord, SegmentBytes: 48}
	w, _, _ := openCollect(t, opts)
	for i := 0; i < 6; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec-%d-aaaaaaaaaaaaaaaa", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("j")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("want several segments, got %v", names)
	}
	// Flip a payload byte in the second segment.
	corruptSegment(t, fs, "j/"+names[1])

	w2, got, stats := openCollect(t, opts)
	defer w2.Close()
	if len(got) >= 6 {
		t.Fatalf("corrupted log replayed all %d records", len(got))
	}
	if stats.TornBytes == 0 {
		t.Fatalf("corruption not reported: %+v", stats)
	}
	if stats.TornSegments == 0 {
		t.Fatalf("segments after the corruption must be dropped: %+v", stats)
	}
	for i, p := range got {
		if want := fmt.Sprintf("rec-%d-aaaaaaaaaaaaaaaa", i); string(p) != want {
			t.Fatalf("record %d: got %q want %q", i, p, want)
		}
	}
}

// corruptSegment flips one payload byte of the first frame in the file.
func corruptSegment(t *testing.T, fs *crashfs.Mem, path string) {
	t.Helper()
	f, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	n, _ := f.Read(buf)
	f.Close()
	if n <= FrameHeader {
		t.Fatalf("segment %s too short to corrupt", path)
	}
	buf[FrameHeader] ^= 0xff
	g, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	g.Close()
	if err := fs.SyncDir("j"); err != nil {
		t.Fatal(err)
	}
}

// TestSyncIntervalPolicy: appends inside the flush window stay
// volatile; once the window elapses the next append syncs everything.
func TestSyncIntervalPolicy(t *testing.T) {
	sim := simtime.NewSim(simtime.Epoch1995)
	fs := crashfs.NewMem()
	opts := Options{FS: fs, Dir: "j", Policy: SyncInterval, Interval: 30 * time.Second, Clock: sim}
	sim.Run(func() {
		w, _, _ := openCollect(t, opts)
		if err := w.Append([]byte("early")); err != nil { // within window: volatile
			t.Fatal(err)
		}
		fs.Crash()
		fs.Reboot()
		w2, got, _ := openCollect(t, opts)
		if len(got) != 0 {
			t.Fatalf("un-flushed append survived: %d records", len(got))
		}
		if err := w2.Append([]byte("first")); err != nil {
			t.Fatal(err)
		}
		sim.Sleep(31 * time.Second)
		if err := w2.Append([]byte("second")); err != nil { // window elapsed: syncs
			t.Fatal(err)
		}
		fs.Crash()
		fs.Reboot()
		_, got, _ = openCollect(t, opts)
		if len(got) != 2 {
			t.Fatalf("flush-window sync lost records: got %d, want 2", len(got))
		}
	})
}

// TestResetTruncatesAfterCheckpoint: Reset removes every segment; a
// recovery after Reset replays nothing.
func TestResetTruncatesAfterCheckpoint(t *testing.T) {
	fs := crashfs.NewMem()
	opts := Options{FS: fs, Dir: "j", Policy: SyncEachRecord, SegmentBytes: 64}
	w, _, _ := openCollect(t, opts)
	for i := 0; i < 8; i++ {
		if err := w.Append(bytes.Repeat([]byte{1}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("post-checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	fs.Reboot()
	w2, got, _ := openCollect(t, opts)
	defer w2.Close()
	if len(got) != 1 || string(got[0]) != "post-checkpoint" {
		t.Fatalf("after Reset: replayed %d records %q", len(got), got)
	}
}

// TestAppendFailsAfterSyncError: an injected sync failure surfaces as
// an append error under SyncEachRecord.
func TestAppendFailsAfterSyncError(t *testing.T) {
	fs := crashfs.NewMem()
	w, _, _ := openCollect(t, Options{FS: fs, Dir: "j", Policy: SyncEachRecord})
	defer w.Close()
	boom := errors.New("disk full")
	fs.FailSync(1, boom)
	if err := w.Append([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("append with failing sync: %v", err)
	}
	if err := w.Append([]byte("y")); err != nil {
		t.Fatalf("append after fault cleared: %v", err)
	}
}

// TestIntervalRequiresClock: the clock must be injected for the
// interval policy (codalint keeps wal off the real-clock allowlist).
func TestIntervalRequiresClock(t *testing.T) {
	_, _, err := Open(Options{FS: crashfs.NewMem(), Dir: "j", Policy: SyncInterval}, nil)
	if err == nil {
		t.Fatal("Open with SyncInterval and no clock must fail")
	}
}

// TestAppendSpanFrameContract: AppendSpan owns a frame's first
// FrameHeader bytes only while it runs. A frame with no room for the
// header, or with a payload over maxPayload, is refused before anything
// is written; a frame AppendSpan has returned is the caller's again, so
// overwriting all of it, header included, changes nothing Open replays.
func TestAppendSpanFrameContract(t *testing.T) {
	t.Run("refused", func(t *testing.T) {
		fs := crashfs.NewMem()
		opts := Options{FS: fs, Dir: "j", Policy: SyncEachRecord}
		w, _, _ := openCollect(t, opts)
		writes := fs.Writes()
		for n := 0; n < FrameHeader; n++ {
			if err := w.AppendSpan(make([]byte, n), untraced); err == nil {
				t.Errorf("a %d-byte frame was accepted", n)
			}
		}
		// Never read: the length check comes before the checksum.
		if err := w.AppendSpan(make([]byte, FrameHeader+maxPayload+1), untraced); err == nil {
			t.Error("a payload over maxPayload was accepted")
		}
		if got := fs.Writes(); got != writes {
			t.Errorf("refused frames made %d writes", got-writes)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, got, _ := openCollect(t, opts)
		defer w2.Close()
		if len(got) != 0 {
			t.Fatalf("refused frames replayed as %q", got)
		}
	})
	t.Run("reused", func(t *testing.T) {
		fs := crashfs.NewMem()
		opts := Options{FS: fs, Dir: "j", Policy: SyncEachRecord}
		w, _, _ := openCollect(t, opts)
		frame := make([]byte, FrameHeader+16)
		var want [][]byte
		for i := 0; i < 3; i++ {
			payload := frame[FrameHeader:]
			for j := range payload {
				payload[j] = byte('a' + i)
			}
			want = append(want, bytes.Clone(payload))
			if err := w.AppendSpan(frame, untraced); err != nil {
				t.Fatal(err)
			}
			for j := range frame {
				frame[j] = 0xFF
			}
		}
		fs.Crash()
		fs.Reboot()
		w2, got, _ := openCollect(t, opts)
		defer w2.Close()
		if len(got) != len(want) {
			t.Fatalf("replayed %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
			}
		}
	})
}
