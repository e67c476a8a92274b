//go:build !race

package integration

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/crashfs"
	"repro/internal/venus"
	"repro/internal/wal"
	"repro/internal/world"
)

// TestAllocGroupJournaledStore pins what one stored file costs end to
// end when every hop is durable: an 8 KB store logged by a journaled
// Venus while disconnected, reintegrated into a three-member journaled
// group on in-memory disks, and shipped by the accepting member to both
// peers. It is cmd/codaperf's group_journal_eth reduced to one client and
// one file. Besides the allocation count it holds the bytes allocated per
// store to a budget: that is the copy ledger of DESIGN.md §4.11 plus the
// wire (each packet's netsim copy, the SFTP reassembly buffers), so a
// defensive copy that creeps back in anywhere on the path shows here as
// another 8 KB. Under the race detector sync.Pool drops items at random,
// so this runs only without it. Take the allocation profile behind a
// ledger row with
// go test -run TestAllocGroupJournaledStore -count 1 -memprofile mem.pprof -memprofilerate 4096 ./internal/integration
func TestAllocGroupJournaledStore(t *testing.T) {
	const (
		runs       = 200
		wantAllocs = 165
		maxBytes   = 96 << 10
	)
	w := world.New(3)
	grp := w.Group(true, "s0", "s1", "s2")
	if _, err := grp.CreateVolume("work"); err != nil {
		t.Fatal(err)
	}
	w.Run(func() {
		v := w.Client("laptop", grp, venus.Config{ClientID: 1, AgingWindow: time.Second, TrickleInterval: time.Second})
		if err := v.Mount("work"); err != nil {
			t.Fatal(err)
		}
		if _, err := v.AttachJournal(venus.JournalOptions{FS: crashfs.NewMem(), Dir: "vj", Policy: wal.SyncEachRecord}); err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 8<<10)
		store := func() {
			v.Disconnect()
			if err := v.WriteFile("/coda/work/report.dat", data); err != nil {
				t.Fatal(err)
			}
			v.Connect(0)
			for deadline := w.Sim.Now().Add(time.Hour); v.CMLRecords() > 0 && w.Sim.Now().Before(deadline); {
				w.Sim.Sleep(10 * time.Millisecond)
			}
			w.Sim.Sleep(time.Second) // the ship to both peers lands
		}
		store() // creates the file; every measured store rewrites it
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, store) // and one warm-up store
		runtime.ReadMemStats(&after)
		if allocs > wantAllocs {
			t.Errorf("one journaled store through the group: %v allocs, want ≤ %d", allocs, wantAllocs)
		}
		if perStore := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perStore > maxBytes {
			t.Errorf("one journaled store through the group: %d bytes allocated, budget %d", perStore, maxBytes)
		}
		if n := v.CMLRecords(); n != 0 {
			t.Fatalf("CML still holds %d records", n)
		}
		if _, _, err := grp.Identical(); err != nil {
			t.Fatal(err)
		}
	})
}
