package integration

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/crashfs"
	"repro/internal/server"
	"repro/internal/venus"
	"repro/internal/wal"
	"repro/internal/world"
)

// TestJournalRecoveryOnRealFilesystem drives the calls cmd/codasrv and
// cmd/codaclient make — AttachJournal on crashfs.OS with each end's
// fsync policy, Checkpoint after seeding — against real directories,
// then kills both processes (no Checkpoint, no CloseJournal) and boots
// replacements from the directories. The restarted server must serve the
// store it acknowledged before the kill, the restarted client must still
// hold its offline work, and once that reintegrates the server image
// must equal that of a run nobody killed.
func TestJournalRecoveryOnRealFilesystem(t *testing.T) {
	run := func(kill bool) []byte {
		dir := t.TempDir()
		// Real-filesystem journals and hand reboots, as the binaries do
		// them: the builder supplies only the clock and the network.
		w := world.New(7)
		sim, net := w.Sim, w.Net
		bootServer := func() *server.Server { // cmd/codasrv -journal dir/srv -vol usr -seed-files 1
			srv := server.New(sim, net.Host("server"))
			_, err := srv.AttachJournal(server.JournalOptions{FS: crashfs.OS{}, Dir: filepath.Join(dir, "srv"), Policy: wal.SyncEachRecord})
			must(t, err)
			if _, err := srv.CreateVolume("usr"); err == nil {
				_, err = srv.WriteFile("usr", "seed.txt", []byte("seeded"))
				must(t, err)
			}
			must(t, srv.Checkpoint())
			return srv
		}
		bootClient := func() *venus.Venus { // cmd/codaclient -journal dir/cli -mount usr
			v := venus.New(sim, net.Host("laptop"), venus.Config{Server: "server", ClientID: 9,
				AgingWindow: time.Second, TrickleInterval: time.Second})
			must(t, v.Mount("usr"))
			_, err := v.AttachJournal(venus.JournalOptions{FS: crashfs.OS{}, Dir: filepath.Join(dir, "cli"),
				Policy: wal.SyncInterval, Interval: 30 * time.Second})
			must(t, err)
			return v
		}
		var image bytes.Buffer
		sim.Run(func() {
			srv, v := bootServer(), bootClient()
			must(t, v.WriteFile("/coda/usr/acked.txt", []byte("written through"))) // acknowledged by the server
			net.SetUp("laptop", "server", false)
			v.Disconnect()
			must(t, v.WriteFile("/coda/usr/offline.txt", []byte("logged in the CML")))
			must(t, v.Mkdir("/coda/usr/dir"))
			net.SetUp("laptop", "server", true)
			if kill {
				v.Close()
				srv.Close()
				srv, v = bootServer(), bootClient()
				if got, err := srv.ReadFile("usr", "acked.txt"); err != nil || string(got) != "written through" {
					t.Errorf("restarted server lost an acknowledged store: %q, %v", got, err)
				}
				if n := v.CMLRecords(); n != 3 { // create + store + mkdir
					t.Errorf("restarted client holds %d CML records, want 3", n)
				}
			}
			v.Connect(0)
			must(t, v.ForceReintegrate())
			if got, err := srv.ReadFile("usr", "offline.txt"); err != nil || string(got) != "logged in the CML" {
				t.Errorf("offline.txt after reintegration = %q, %v", got, err)
			}
			must(t, srv.SaveState(&image))
			v.Close()
			srv.Close()
			must(t, v.CloseJournal())
			must(t, srv.CloseJournal())
		})
		return image.Bytes()
	}
	if want, got := run(false), run(true); !bytes.Equal(got, want) {
		t.Errorf("server image after kill, restart and reintegration differs from a run nobody killed:\n got %x\nwant %x", got, want)
	}
}
