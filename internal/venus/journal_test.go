package venus_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/crashfs"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/venus"
	"repro/internal/wal"
)

// The client crash matrix replays the paper's §4.3.1 durability story end
// to end: a disconnected Venus journals every CML mutation, the machine
// loses power at every possible journal write, and a fresh Venus on the
// same client identity recovers, reconnects, and reintegrates. The server
// must end up byte-identical to a run in which the client never crashed
// and performed exactly the acknowledged (durably journaled) prefix of
// the workload.
//
// Every op below logs exactly one CML record (one WAL frame), so the
// acknowledged-op prefix and the durable-frame prefix coincide and the
// matrix can account in ops. Multi-record operations (WriteFile on a new
// file = create + store) are pinned separately in
// TestVenusCreateStoreCrashSplit.

var venusOps = []func(v *venus.Venus) error{
	func(v *venus.Venus) error { return v.WriteFile("/coda/usr/doc", []byte("edited offline")) },
	func(v *venus.Venus) error { return v.Mkdir("/coda/usr/dir") },
	func(v *venus.Venus) error { return v.Symlink("doc", "/coda/usr/lnk") },
	func(v *venus.Venus) error { return v.WriteFile("/coda/usr/doc", []byte("edited offline twice")) },
	func(v *venus.Venus) error { return v.Checkpoint() },
	func(v *venus.Venus) error { return v.WriteFile("/coda/proj/notes", []byte("project notes v2")) },
	func(v *venus.Venus) error { return v.Rename("/coda/usr/doc", "/coda/usr/dir/doc2") },
	func(v *venus.Venus) error { return v.Remove("/coda/usr/lnk") },
	func(v *venus.Venus) error { return v.Mkdir("/coda/proj/build") },
	func(v *venus.Venus) error { return v.WriteFile("/coda/usr/todo", []byte("ship the PR")) },
	func(v *venus.Venus) error { return v.Link("/coda/usr/dir/doc2", "/coda/usr/hard") },
	func(v *venus.Venus) error { return v.WriteFile("/coda/proj/notes", []byte("project notes v3")) },
}

func venusJournalOpts(mem *crashfs.Mem) venus.JournalOptions {
	return venus.JournalOptions{FS: mem, Dir: "cj", Policy: wal.SyncEachRecord}
}

// venusMatrixRun runs venusOps[:limit] on a journaled, disconnected
// client with an optional power cut armed at the crashAt-th journal
// write, then reboots the "disk", recovers into a fresh Venus with the
// same ClientID, reintegrates everything, and returns the op count that
// succeeded, the write count at the end of the op phase, the server's
// final state bytes, and the recovery stats.
func venusMatrixRun(t *testing.T, crashAt, keepUnsynced, limit int) (int, int, []byte, venus.RecoveryInfo) {
	t.Helper()
	w := newWorld(t)
	w.seed("usr", map[string]string{"doc": "server copy", "todo": "old list"})
	w.seed("proj", map[string]string{"notes": "project notes v1"})
	mem := crashfs.NewMem()
	var (
		completed int
		writesEnd int
		state     []byte
		info      venus.RecoveryInfo
	)
	w.sim.Run(func() {
		v1 := w.venus("c1", venus.Config{ClientID: 42, AgingWindow: time.Hour})
		mustMount(t, v1, "usr")
		mustMount(t, v1, "proj")
		for _, p := range []string{"/coda/usr/doc", "/coda/usr/todo", "/coda/proj/notes"} {
			if _, err := v1.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		w.net.SetUp("c1", "server", false)
		v1.Disconnect()
		if _, err := v1.AttachJournal(venusJournalOpts(mem)); err != nil {
			t.Fatal(err)
		}
		if crashAt > 0 {
			mem.ArmCrash(crashAt, keepUnsynced)
		}
		for i := 0; i < limit; i++ {
			if err := venusOps[i](v1); err != nil {
				break
			}
			completed++
		}
		writesEnd = mem.Writes()
		v1.Close()
		w.net.SetUp("c1", "server", true)
		mem.Reboot()

		// "Reboot": a fresh Venus on the same client identity mounts,
		// recovers the CML from snapshot + WAL, and drains it.
		v2 := w.venus("c1b", venus.Config{ClientID: 42, AgingWindow: time.Hour})
		mustMount(t, v2, "usr")
		mustMount(t, v2, "proj")
		var err error
		info, err = v2.AttachJournal(venusJournalOpts(mem))
		if err != nil {
			t.Fatalf("recovery after crash at write %d: %v", crashAt, err)
		}
		if err := v2.ForceReintegrate(); err != nil {
			t.Fatalf("reintegration after crash at write %d: %v", crashAt, err)
		}
		if got := v2.CMLRecords(); got != 0 {
			t.Fatalf("CML not drained after recovery: %d records", got)
		}
		var buf bytes.Buffer
		if err := w.srv.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		state = buf.Bytes()
	})
	return completed, writesEnd, state, info
}

// TestVenusCrashMatrix sweeps a power cut across every journal write of
// the offline workload, both with a clean cut (unsynced bytes lost) and
// with a torn tail (a few unsynced bytes of the interrupted frame survive,
// as partial sectors do on real devices). Acknowledged mutations survive;
// the one the cut interrupted vanishes without trace.
func TestVenusCrashMatrix(t *testing.T) {
	_, total, full, _ := venusMatrixRun(t, 0, 0, len(venusOps))
	if total == 0 {
		t.Fatal("offline workload produced no journal writes")
	}
	baselines := map[int][]byte{len(venusOps): full}
	baseline := func(p int) []byte {
		if b, ok := baselines[p]; ok {
			return b
		}
		pc, _, b, _ := venusMatrixRun(t, 0, 0, p)
		if pc != p {
			t.Fatalf("baseline run completed %d/%d ops", pc, p)
		}
		baselines[p] = b
		return b
	}
	for _, keep := range []int{0, 3} {
		for k := 1; k <= total; k++ {
			p, _, got, _ := venusMatrixRun(t, k, keep, len(venusOps))
			if !bytes.Equal(got, baseline(p)) {
				t.Errorf("crash at write %d (keep %d): server state after recovery diverges from clean run of the %d acknowledged ops",
					k, keep, p)
			}
		}
	}
}

// TestVenusCrashTornFrameTruncated cuts power on the very first journal
// frame while letting 3 unsynced bytes survive: too few for a frame
// header, so recovery must report a torn tail, truncate it, and replay
// nothing.
func TestVenusCrashTornFrameTruncated(t *testing.T) {
	p, _, got, info := venusMatrixRun(t, 1, 3, len(venusOps))
	if p != 0 {
		t.Fatalf("first op survived its own crash: %d completed", p)
	}
	if info.WAL.TornBytes == 0 {
		t.Error("no torn bytes reported; the partial frame was not truncated")
	}
	if info.EntriesReplayed != 0 {
		t.Errorf("%d entries replayed from a torn-only WAL", info.EntriesReplayed)
	}
	_, _, want, _ := venusMatrixRun(t, 0, 0, 0)
	if !bytes.Equal(got, want) {
		t.Error("torn first frame leaked into recovered state")
	}
}

// TestVenusCreateStoreCrashSplit pins the durability granularity of a
// multi-record operation. WriteFile on a new file logs two records —
// create, then store — each its own journal transaction, exactly like
// creat(2) followed by write(2): a crash between them durably leaves the
// created, empty file even though WriteFile as a whole reported failure.
func TestVenusCreateStoreCrashSplit(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	mem := crashfs.NewMem()
	w.sim.Run(func() {
		v1 := w.venus("c1", venus.Config{ClientID: 42, AgingWindow: time.Hour})
		mustMount(t, v1, "usr")
		w.net.SetUp("c1", "server", false)
		v1.Disconnect()
		if _, err := v1.AttachJournal(venusJournalOpts(mem)); err != nil {
			t.Fatal(err)
		}
		mem.ArmCrash(2, 0) // write 1 = create frame, write 2 = store frame
		if err := v1.WriteFile("/coda/usr/new.txt", []byte("contents lost to the crash")); err == nil {
			t.Fatal("WriteFile succeeded across an armed crash")
		}
		v1.Close()
		w.net.SetUp("c1", "server", true)
		mem.Reboot()

		v2 := w.venus("c1b", venus.Config{ClientID: 42, AgingWindow: time.Hour})
		mustMount(t, v2, "usr")
		info, err := v2.AttachJournal(venusJournalOpts(mem))
		if err != nil {
			t.Fatal(err)
		}
		if info.EntriesReplayed != 1 {
			t.Fatalf("replayed %d entries, want just the create", info.EntriesReplayed)
		}
		if err := v2.ForceReintegrate(); err != nil {
			t.Fatal(err)
		}
		data, err := w.srv.ReadFile("usr", "new.txt")
		if err != nil {
			t.Fatalf("created file missing after recovery: %v", err)
		}
		if len(data) != 0 {
			t.Errorf("unacknowledged store survived the crash: %q", data)
		}
	})
}

// TestVenusJournalRecoversHDB checks the hoard database rides the same
// journal: entries added and removed before an unclean shutdown are back
// after recovery.
func TestVenusJournalRecoversHDB(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"a": "x", "b": "y"})
	mem := crashfs.NewMem()
	w.sim.Run(func() {
		v1 := w.venus("c1", venus.Config{ClientID: 7})
		mustMount(t, v1, "usr")
		if _, err := v1.AttachJournal(venusJournalOpts(mem)); err != nil {
			t.Fatal(err)
		}
		v1.HoardAdd("/coda/usr/a", 600, false)
		v1.HoardAdd("/coda/usr/b", 900, true)
		v1.HoardRemove("/coda/usr/a")
		if err := v1.JournalErr(); err != nil {
			t.Fatal(err)
		}
		v1.Close() // unclean: no CloseJournal, no Checkpoint
		mem.Reboot()

		v2 := w.venus("c1b", venus.Config{ClientID: 7})
		mustMount(t, v2, "usr")
		if _, err := v2.AttachJournal(venusJournalOpts(mem)); err != nil {
			t.Fatal(err)
		}
		hdb := v2.HoardList()
		if len(hdb) != 1 || hdb[0].Path != "/coda/usr/b" || hdb[0].Priority != 900 || !hdb[0].Children {
			t.Errorf("recovered HDB = %+v", hdb)
		}
	})
}

// TestVenusJournalHDBEditOutlivesWriteFailure: the HDB is best-effort,
// so an edit whose journal write fails is still made, and JournalErr
// reports the failure until a Checkpoint captures the edit.
func TestVenusJournalHDBEditOutlivesWriteFailure(t *testing.T) {
	w := newWorld(t)
	mem := crashfs.NewMem()
	w.sim.Run(func() {
		v1 := w.venus("c1", venus.Config{ClientID: 7})
		if _, err := v1.AttachJournal(venusJournalOpts(mem)); err != nil {
			t.Fatal(err)
		}
		mem.FailWrite(1, errInjectedWrite)
		v1.HoardAdd("/coda/usr/a", 600, false)
		if hdb := v1.HoardList(); len(hdb) != 1 {
			t.Errorf("HDB after a failed journal write = %+v, want the edit made", hdb)
		}
		if err := v1.JournalErr(); err == nil {
			t.Error("JournalErr = nil after a failed journal write")
		}
		if err := v1.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := v1.JournalErr(); err != nil {
			t.Errorf("JournalErr after Checkpoint = %v, want healed", err)
		}
		v1.Close()
		mem.Reboot()

		v2 := w.venus("c1b", venus.Config{ClientID: 7})
		if _, err := v2.AttachJournal(venusJournalOpts(mem)); err != nil {
			t.Fatal(err)
		}
		if hdb := v2.HoardList(); len(hdb) != 1 || hdb[0].Path != "/coda/usr/a" {
			t.Errorf("recovered HDB = %+v", hdb)
		}
	})
}

// TestVenusJournalHDBEditRacesCheckpoint: an HDB edit and its journal
// entry land under one hold of the journal lock, so a Checkpoint racing
// the edit either snapshots it or leaves its WAL entry in place, and an
// edit whose call returned survives a crash. Only a Real clock can
// interleave the two: under a Sim nothing parks between them.
func TestVenusJournalHDBEditRacesCheckpoint(t *testing.T) {
	const rounds = 300
	clock := simtime.Real{}
	net := netsim.New(clock, 1)
	mem := crashfs.NewMem()
	boot := func(r int) *venus.Venus {
		t.Helper()
		v := venus.New(clock, net.Host(fmt.Sprintf("c%d", r)), venus.Config{ClientID: 7})
		if _, err := v.AttachJournal(venusJournalOpts(mem)); err != nil {
			t.Fatal(err)
		}
		return v
	}
	v := boot(0)
	for r := 1; r <= rounds; r++ {
		// Checkpoint until the edit has returned: the last checkpoint
		// may start while the edit is under way.
		done := make(chan struct{})
		go func() {
			defer close(done)
			v.HoardAdd(fmt.Sprintf("/coda/usr/f%d", r), r, false)
		}()
	checkpoint:
		for {
			select {
			case <-done:
				break checkpoint
			default:
			}
			if err := v.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		v.Close() // unclean: no CloseJournal
		mem.Reboot()
		v = boot(r)
		if got := len(v.HoardList()); got != r {
			t.Fatalf("after %d edits and a crash, %d HDB entries survived", r, got)
		}
	}
	v.Close()
}

// TestVenusJournalFailureBlocksMutation pins the §4.3.1 invariant that an
// update which cannot be made persistent is rejected rather than applied
// only in volatile memory.
func TestVenusJournalFailureBlocksMutation(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"doc": "server copy"})
	mem := crashfs.NewMem()
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{ClientID: 5})
		mustMount(t, v, "usr")
		if _, err := v.ReadFile("/coda/usr/doc"); err != nil {
			t.Fatal(err)
		}
		w.net.SetUp("c1", "server", false)
		v.Disconnect()
		if _, err := v.AttachJournal(venusJournalOpts(mem)); err != nil {
			t.Fatal(err)
		}
		mem.FailWrite(1, errInjectedWrite)
		if err := v.WriteFile("/coda/usr/doc", []byte("must not stick")); err == nil {
			t.Fatal("write with failing journal accepted")
		}
		if v.CMLRecords() != 0 {
			t.Errorf("rejected mutation reached the CML: %d records", v.CMLRecords())
		}
		if data, err := v.ReadFile("/coda/usr/doc"); err != nil || string(data) != "server copy" {
			t.Errorf("rejected mutation visible locally: %q, %v", data, err)
		}
	})
}

var errInjectedWrite = bytes.ErrTooLarge // any distinctive sentinel
