package venus_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/crashfs"
	"repro/internal/obs"
	"repro/internal/venus"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestSaveLoadStateAcrossRestart(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"doc": "server copy"})
	journal := venus.JournalOptions{FS: crashfs.OS{}, Dir: filepath.Join(t.TempDir(), "venus.journal")}

	w.sim.Run(func() {
		// Session 1: hoard, disconnect, edit, quit (checkpoint + close),
		// on the real filesystem as cmd/codaclient does.
		v1 := w.venus("c1", venus.Config{ClientID: 42, AgingWindow: time.Hour})
		mustMount(t, v1, "usr")
		if _, err := v1.AttachJournal(journal); err != nil {
			t.Fatal(err)
		}
		v1.HoardAdd("/coda/usr/doc", 700, false)
		if _, err := v1.ReadFile("/coda/usr/doc"); err != nil {
			t.Fatal(err)
		}
		w.net.SetUp("c1", "server", false)
		v1.Disconnect()
		if err := v1.WriteFile("/coda/usr/doc", []byte("edited offline")); err != nil {
			t.Fatal(err)
		}
		if err := v1.WriteFile("/coda/usr/new.txt", []byte("created offline")); err != nil {
			t.Fatal(err)
		}
		records := v1.CMLRecords()
		if err := v1.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		v1.Close()
		if err := v1.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		w.net.SetUp("c1", "server", true)

		// Session 2: a fresh Venus on the same client identity restores
		// the CML and HDB, then reintegrates the offline work.
		v2 := w.venus("c1b", venus.Config{ClientID: 42, AgingWindow: 2 * time.Second})
		mustMount(t, v2, "usr")
		if info, err := v2.AttachJournal(journal); err != nil || !info.SnapshotLoaded {
			t.Fatalf("AttachJournal = %+v, %v", info, err)
		}
		if got := v2.CMLRecords(); got != records {
			t.Fatalf("restored CML has %d records, want %d", got, records)
		}
		if len(v2.HoardList()) != 1 {
			t.Errorf("HDB not restored: %v", v2.HoardList())
		}
		// Local reads see the restored (dirty) contents immediately.
		if data, err := v2.ReadFile("/coda/usr/doc"); err != nil || string(data) != "edited offline" {
			t.Errorf("restored read = %q, %v", data, err)
		}

		w.sim.Sleep(time.Minute)
		if got, err := w.srv.ReadFile("usr", "doc"); err != nil || string(got) != "edited offline" {
			t.Errorf("doc after restart-reintegration = %q, %v", got, err)
		}
		if got, err := w.srv.ReadFile("usr", "new.txt"); err != nil || string(got) != "created offline" {
			t.Errorf("new.txt after restart-reintegration = %q, %v", got, err)
		}
		if v2.CMLRecords() != 0 {
			t.Errorf("CML not drained after restore: %d", v2.CMLRecords())
		}
	})
}

func TestLoadStateMissingFileIsFirstRun(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "usr")
		info, err := v.AttachJournal(venus.JournalOptions{FS: crashfs.OS{}, Dir: filepath.Join(t.TempDir(), "absent")})
		if err != nil || info.SnapshotLoaded || info.EntriesReplayed != 0 {
			t.Errorf("missing journal directory: %+v, %v", info, err)
		}
	})
}

func TestLoadStateUnmountedVolumeRejected(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	w.seed("other", nil)
	w.sim.Run(func() {
		v1 := w.venus("c1", venus.Config{ClientID: 1})
		mustMount(t, v1, "usr")
		mustMount(t, v1, "other")
		v1.Disconnect()
		v1.WriteFile("/coda/other/f", []byte("x"))
		var buf bytes.Buffer
		if err := v1.SaveState(&buf); err != nil {
			t.Fatal(err)
		}

		v2 := w.venus("c2", venus.Config{ClientID: 1})
		mustMount(t, v2, "usr") // "other" not mounted
		if err := v2.LoadState(&buf); err == nil {
			t.Error("LoadState accepted CML for an unmounted volume")
		}
	})
}

func TestRestoredRecordsOverlayFetchedDirectories(t *testing.T) {
	// The offline work happened in a subdirectory that is NOT cached when
	// the state is restored; fetching it later from the server must show
	// the pending (unreintegrated) entries overlaid on the server's copy.
	w := newWorld(t)
	w.seed("usr", map[string]string{"proj/existing.txt": "old"})
	w.sim.Run(func() {
		v1 := w.venus("c1", venus.Config{ClientID: 9, AgingWindow: time.Hour})
		mustMount(t, v1, "usr")
		if _, err := v1.ReadDir("/coda/usr/proj"); err != nil {
			t.Fatal(err)
		}
		w.net.SetUp("c1", "server", false)
		v1.Disconnect()
		if err := v1.WriteFile("/coda/usr/proj/offline.txt", []byte("pending")); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := v1.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		v1.Close()
		w.net.SetUp("c1", "server", true)

		v2 := w.venus("c1c", venus.Config{ClientID: 9, AgingWindow: time.Hour, PinWriteDisconnected: true})
		mustMount(t, v2, "usr")
		if err := v2.LoadState(&buf); err != nil {
			t.Fatal(err)
		}
		// proj is not cached in v2; resolving it fetches the server copy,
		// which lacks offline.txt — the overlay must add it back.
		names, err := v2.ReadDir("/coda/usr/proj")
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, n := range names {
			if n == "offline.txt" {
				found = true
			}
		}
		if !found {
			t.Errorf("ReadDir = %v; pending create not overlaid", names)
		}
		if data, err := v2.ReadFile("/coda/usr/proj/offline.txt"); err != nil || string(data) != "pending" {
			t.Errorf("offline.txt = %q, %v", data, err)
		}
	})
}

// TestVenusImageGolden pins the image format byte for byte — a change
// here strands every state file on disk, so it must come with a version
// bump — and the re-encode identity: a loaded image saves to the bytes it
// was loaded from. Regenerate with: go test ./internal/venus -run Golden -update
func TestVenusImageGolden(t *testing.T) {
	const path = "testdata/golden/venus.image"
	w := newWorld(t)
	w.seed("proj", map[string]string{"notes": "v1"})
	w.seed("usr", map[string]string{"doc": "server copy"})
	w.sim.Run(func() {
		cfg := venus.Config{ClientID: 7, AgingWindow: time.Hour}
		v1 := w.venus("c1", cfg)
		mustMount(t, v1, "usr")
		mustMount(t, v1, "proj")
		v1.HoardAdd("/coda/usr/doc", 700, false)
		v1.HoardAdd("/coda/proj", 100, true)
		if _, err := v1.ReadFile("/coda/usr/doc"); err != nil {
			t.Fatal(err)
		}
		w.net.SetUp("c1", "server", false)
		v1.Disconnect()
		for _, err := range []error{
			v1.WriteFile("/coda/usr/doc", []byte("first draft")),
			v1.WriteFile("/coda/usr/doc", []byte("edited offline")), // cancels the first store
			v1.Mkdir("/coda/usr/dir"),
			v1.Symlink("doc", "/coda/usr/lnk"),
			v1.Rename("/coda/usr/doc", "/coda/usr/dir/doc2"),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := v1.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		v1.Close()
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("image differs from %s:\n got %x\nwant %x", path, buf.Bytes(), want)
		}

		w.net.SetUp("c1", "server", true)
		v2 := w.venus("c1b", cfg)
		mustMount(t, v2, "usr")
		mustMount(t, v2, "proj")
		defer v2.Close()
		if err := v2.LoadState(bytes.NewReader(want)); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := v2.SaveState(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), want) {
			t.Errorf("loaded image re-encodes differently:\n got %x\nwant %x", again.Bytes(), want)
		}
	})
}

// TestCancelCountersSurviveRestoreAndJournalRecovery: a restore — by
// LoadState or by AttachJournal's recovery — lands in the log Mount
// configured, so a store cancelled afterwards still reaches the
// per-class counters (the restore used to swap in a fresh, unobserved log).
func TestCancelCountersSurviveRestoreAndJournalRecovery(t *testing.T) {
	for _, how := range []string{"LoadState", "AttachJournal"} {
		w := newWorld(t)
		w.seed("usr", map[string]string{"doc": "server copy"})
		w.sim.Run(func() {
			reg := obs.NewRegistry(w.sim)
			mem := crashfs.NewMem()
			opts := venus.JournalOptions{FS: mem, Dir: "cj"}
			cfg := venus.Config{ClientID: 5, AgingWindow: time.Hour}
			v1 := w.venus("c1", cfg)
			mustMount(t, v1, "usr")
			if _, err := v1.ReadFile("/coda/usr/doc"); err != nil {
				t.Fatal(err)
			}
			w.net.SetUp("c1", "server", false)
			v1.Disconnect()
			if _, err := v1.AttachJournal(opts); err != nil {
				t.Fatal(err)
			}
			if err := v1.Checkpoint(); err != nil { // recovery installs a snapshot, then replays
				t.Fatal(err)
			}
			if err := v1.WriteFile("/coda/usr/doc", []byte("first draft")); err != nil {
				t.Fatal(err)
			}
			var img bytes.Buffer
			if err := v1.SaveState(&img); err != nil {
				t.Fatal(err)
			}
			v1.Close()
			mem.Reboot() // power cut: the store is in the WAL only

			cfg.Obs = reg
			v2 := w.venus("c1b", cfg)
			defer v2.Close()
			mustMount(t, v2, "usr")
			var err error
			if how == "LoadState" {
				err = v2.LoadState(&img)
			} else {
				_, err = v2.AttachJournal(opts)
			}
			if err != nil || v2.CMLRecords() != 1 {
				t.Fatalf("%s: %v, %d CML records restored, want 1", how, err, v2.CMLRecords())
			}
			if err := v2.WriteFile("/coda/usr/doc", []byte("second draft")); err != nil {
				t.Fatal(err)
			}
			cancelled := reg.Counter("venus_cml_cancelled_records_total",
				obs.L("client", "c1b"), obs.L("class", string(cml.CancelStoreOverwrite))).Value()
			if cancelled != 1 || v2.CMLRecords() != 1 {
				t.Errorf("%s: overwrite after restore counted %d cancelled records (%d in the CML), want 1 and 1",
					how, cancelled, v2.CMLRecords())
			}
		})
	}
}
