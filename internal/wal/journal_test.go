package wal

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/crashfs"
	"repro/internal/obs"
)

// fenceState is the smallest journaled state: the LSNs applied to it, in
// order. Its image is the journal's LSN followed by the list; an entry
// is its LSN and a filler byte. Correct recovery leaves exactly 1..m.
type fenceState struct {
	opts    JournalOptions
	log     Journal
	applied []uint64
}

var untraced obs.SpanContext

// openFence recovers a fenceState the way both ends do: snapshot,
// JournalAt(watermark), Attach. It fails the test if the replay hands
// over an entry the snapshot already holds.
func openFence(t *testing.T, fs crashfs.FS, attach bool) *fenceState {
	t.Helper()
	s := &fenceState{opts: JournalOptions{FS: fs, Dir: "state", Policy: SyncEachRecord}}
	if !attach {
		return s
	}
	image, ok, err := s.opts.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		lsn, n := binary.Uvarint(image)
		s.log = JournalAt(lsn)
		for image = image[n:]; len(image) > 0; image = image[n:] {
			lsn, n = binary.Uvarint(image)
			s.applied = append(s.applied, lsn)
		}
	}
	watermark := s.log.LSN()
	_, err = s.log.Attach(s.opts.WAL("log", nil, nil, ""), func(p []byte) error {
		lsn, _ := binary.Uvarint(p)
		if lsn <= watermark {
			t.Errorf("replayed entry %d at or below the snapshot's watermark %d", lsn, watermark)
		}
		s.applied = append(s.applied, lsn)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *fenceState) append() (uint64, error) {
	lsn := s.log.Next()
	if err := s.log.Append(append(binary.AppendUvarint(nil, lsn), 'x'), untraced); err != nil {
		return 0, err
	}
	s.applied = append(s.applied, lsn)
	return lsn, nil
}

func (s *fenceState) image() []byte {
	img := binary.AppendUvarint(nil, s.log.LSN())
	for _, lsn := range s.applied {
		img = binary.AppendUvarint(img, lsn)
	}
	return img
}

// step runs one script letter: 'a' appends, 'c' checkpoints, 'h' is the
// half checkpoint the fence exists for — the snapshot made durable and
// the power cut before the log is truncated.
func (s *fenceState) step(op byte) (lsn uint64, err error) {
	switch op {
	case 'a':
		return s.append()
	case 'c':
		return 0, s.opts.Checkpoint(s.image(), &s.log)
	default:
		return 0, crashfs.WriteFileAtomic(s.opts.FS, s.opts.snapshotPath(), s.image())
	}
}

// TestJournalFenceCrashSweep states the journaled-state contract once,
// for both ends: wherever the power is cut in append → checkpoint →
// append, reopening yields every acknowledged entry exactly once and in
// order — entries above the surviving snapshot's watermark from the log,
// none at or below it — and the next LSN is above everything ever
// acknowledged, so an entry written after recovery is not fenced off by
// the next one (the log may be empty after Reset with a watermark > 0).
func TestJournalFenceCrashSweep(t *testing.T) {
	// run executes script, cutting power at the crashAt-th write (0:
	// after the script), and returns the recovered state and how many
	// appends were acknowledged.
	run := func(script string, crashAt, keepUnsynced int) (recovered *fenceState, acked uint64, mem *crashfs.Mem, writes int) {
		mem = crashfs.NewMem()
		s := openFence(t, mem, true)
		if crashAt > 0 {
			mem.ArmCrash(crashAt, keepUnsynced)
		}
		for i := 0; i < len(script); i++ {
			lsn, err := s.step(script[i])
			if err != nil {
				break
			}
			if lsn > 0 {
				acked = lsn
			}
		}
		writes = mem.Writes()
		mem.Crash()
		mem.Reboot()
		return openFence(t, mem, true), acked, mem, writes
	}
	check := func(name string, s *fenceState, acked uint64, mem *crashfs.Mem) {
		t.Helper()
		for i, lsn := range s.applied {
			if lsn != uint64(i+1) {
				t.Fatalf("%s: recovered entries %v, want 1..m each exactly once", name, s.applied)
			}
		}
		m := uint64(len(s.applied))
		if m < acked || s.log.Next() != m+1 {
			t.Fatalf("%s: recovered %d entries with next LSN %d; %d were acknowledged", name, m, s.log.Next(), acked)
		}
		// The entry written after recovery must survive the next one.
		if _, err := s.append(); err != nil {
			t.Fatalf("%s: append after recovery: %v", name, err)
		}
		mem.Crash()
		mem.Reboot()
		if again := openFence(t, mem, true); len(again.applied) != int(m+1) || again.applied[m] != m+1 {
			t.Fatalf("%s: entry %d written after recovery came back as %v", name, m+1, again.applied)
		}
	}

	const script = "aaacaacah"
	for p := 0; p <= len(script); p++ { // a cut between operations
		s, acked, mem, _ := run(script[:p], 0, 0)
		check(fmt.Sprintf("cut after %q", script[:p]), s, acked, mem)
	}
	_, _, _, total := run(script, 0, 0)
	for _, keep := range []int{0, 5} { // a cut inside each write, clean and torn
		for k := 1; k <= total; k++ {
			s, acked, mem, _ := run(script, k, keep)
			check(fmt.Sprintf("cut at write %d (keep %d)", k, keep), s, acked, mem)
		}
	}

	// A detached journal numbers entries as an attached one does.
	attached, detached := openFence(t, crashfs.NewMem(), true), openFence(t, nil, false)
	for i := 0; i < len(script); i++ {
		if script[i] != 'a' {
			if _, err := attached.step(script[i]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		a, aerr := attached.append()
		d, derr := detached.append()
		if aerr != nil || derr != nil || a != d {
			t.Fatalf("append %d: attached LSN %d (%v), detached LSN %d (%v)", i, a, aerr, d, derr)
		}
	}
}
