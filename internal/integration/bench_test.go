package integration

import (
	"testing"
	"time"

	"repro/internal/crashfs"
	"repro/internal/venus"
	"repro/internal/wal"
	"repro/internal/world"
)

// BenchmarkAllocGroupJournaledStore pins what one stored file costs end
// to end when every hop is durable: an 8 KB store logged by a journaled
// Venus while disconnected, reintegrated into a three-member journaled
// group on in-memory disks, and shipped by the accepting member to both
// peers. It is cmd/codaperf's group_journal_eth reduced to one client and
// one file, so B/op is the copy ledger of DESIGN.md §4.11 plus the wire
// (each packet's netsim copy, the SFTP reassembly buffers): a defensive
// copy that creeps back in anywhere on the path shows here as another
// 8 KB. Enforced by benchgate against bench_baseline.json; take the
// allocation profile behind a ledger row with
// go test -run '^$' -bench GroupJournaledStore -benchtime 200x -memprofile mem.pprof -memprofilerate 4096 ./internal/integration
func BenchmarkAllocGroupJournaledStore(b *testing.B) {
	w := world.New(3)
	grp := w.Group(true, "s0", "s1", "s2")
	if _, err := grp.CreateVolume("work"); err != nil {
		b.Fatal(err)
	}
	w.Run(func() {
		v := w.Client("laptop", grp, venus.Config{ClientID: 1, AgingWindow: time.Second, TrickleInterval: time.Second})
		if err := v.Mount("work"); err != nil {
			b.Fatal(err)
		}
		if _, err := v.AttachJournal(venus.JournalOptions{FS: crashfs.NewMem(), Dir: "vj", Policy: wal.SyncEachRecord}); err != nil {
			b.Fatal(err)
		}
		data := make([]byte, 8<<10)
		store := func() {
			v.Disconnect()
			if err := v.WriteFile("/coda/work/report.dat", data); err != nil {
				b.Fatal(err)
			}
			v.Connect(0)
			for deadline := w.Sim.Now().Add(time.Hour); v.CMLRecords() > 0 && w.Sim.Now().Before(deadline); {
				w.Sim.Sleep(10 * time.Millisecond)
			}
			w.Sim.Sleep(time.Second) // the ship to both peers lands
		}
		store() // creates the file; every measured store rewrites it
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store()
		}
		b.StopTimer()
		if n := v.CMLRecords(); n != 0 {
			b.Fatalf("CML still holds %d records", n)
		}
		if _, _, err := grp.Identical(); err != nil {
			b.Fatal(err)
		}
	})
}
