package integration

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/venus"
)

// TestParallelVolumesSerializePerVolume hammers one server with C clients
// × V volumes concurrently and checks the per-volume serialization
// invariant: every volume's final stamp is exactly 1 + 3·C·K (each
// connected-mode file creation is one MakeObject — bumping the new FID
// and its parent — plus one Store), so no update was lost and no stamp
// was double-allocated across the volume domains.
func TestParallelVolumesSerializePerVolume(t *testing.T) {
	const (
		C = 4 // clients
		V = 4 // volumes
		K = 3 // files per (client, volume)
	)
	w := newWorld(7)
	for j := 0; j < V; j++ {
		w.srv.CreateVolume(fmt.Sprintf("vol%d", j))
	}
	w.Run(func() {
		clients := make([]*venus.Venus, C)
		for i := range clients {
			clients[i] = w.venus(fmt.Sprintf("c%d", i), uint32(i+1), venus.Config{})
			for j := 0; j < V; j++ {
				if err := clients[i].Mount(fmt.Sprintf("vol%d", j)); err != nil {
					t.Fatal(err)
				}
			}
		}

		// One goroutine per (client, volume) pair, all writing at once.
		done := simtime.NewQueue[error](w.Sim)
		for i := 0; i < C; i++ {
			for j := 0; j < V; j++ {
				i, j := i, j
				w.Sim.Go(func() {
					var err error
					for k := 0; k < K; k++ {
						path := fmt.Sprintf("/coda/vol%d/c%d_f%d.txt", j, i, k)
						if e := clients[i].WriteFile(path, payload(i, j, k)); e != nil && err == nil {
							err = fmt.Errorf("%s: %w", path, e)
						}
					}
					done.Put(err)
				})
			}
		}
		for n := 0; n < C*V; n++ {
			if err, _ := done.Get(); err != nil {
				t.Fatal(err)
			}
		}

		// Exact stamp accounting per volume.
		want := uint64(1 + 3*C*K)
		for j := 0; j < V; j++ {
			name := fmt.Sprintf("vol%d", j)
			stamp, err := w.srv.VolumeStamp(name)
			if err != nil {
				t.Fatal(err)
			}
			if stamp != want {
				t.Errorf("%s stamp = %d, want %d", name, stamp, want)
			}
		}
		// And every byte arrived intact.
		for i := 0; i < C; i++ {
			for j := 0; j < V; j++ {
				for k := 0; k < K; k++ {
					rel := fmt.Sprintf("c%d_f%d.txt", i, k)
					got, err := w.srv.ReadFile(fmt.Sprintf("vol%d", j), rel)
					if err != nil || !bytes.Equal(got, payload(i, j, k)) {
						t.Errorf("vol%d/%s = %d bytes, %v", j, rel, len(got), err)
					}
				}
			}
		}
	})
}

func payload(i, j, k int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("c%d v%d f%d;", i, j, k)), 50)
}

// TestTrickleVolumesIndependent: with per-volume trickle loops, a small
// update in one volume reintegrates while another volume's huge store is
// still shipping over the weak link. A serialized drain would hold the
// small record hostage for the big file's entire transfer time.
func TestTrickleVolumesIndependent(t *testing.T) {
	w := newWorld(8)
	w.srv.CreateVolume("bulk")
	w.srv.CreateVolume("mail")
	w.Run(func() {
		v := w.venus("c", 1, venus.Config{
			AgingWindow:          time.Second,
			PinWriteDisconnected: true,
		})
		for _, name := range []string{"bulk", "mail"} {
			if err := v.Mount(name); err != nil {
				t.Fatal(err)
			}
		}
		w.Net.SetLink("c", "server", netsim.Modem.Params())
		v.Connect(9600)

		// ~200 KB takes ≥ 166 s of pure transmission at 9600 b/s.
		big := bytes.Repeat([]byte("bulk data "), 20_000)
		must(t, v.WriteFile("/coda/bulk/archive.tar", big))
		w.Sim.Sleep(10 * time.Second) // the bulk shipment is now underway
		must(t, v.WriteFile("/coda/mail/outbox.txt", []byte("short note")))

		// The mail volume's record must land while bulk is still shipping.
		// (The bulk file may already exist empty — its Create record ships
		// in a small first chunk — so "still shipping" means the contents
		// are incomplete, not that the name is absent.)
		start := w.Sim.Now()
		for {
			if got, err := w.srv.ReadFile("mail", "outbox.txt"); err == nil {
				if string(got) != "short note" {
					t.Fatalf("outbox = %q", got)
				}
				break
			}
			if w.Sim.Now().Sub(start) > 110*time.Second {
				t.Fatal("small volume starved behind the bulk transfer")
			}
			w.Sim.Sleep(5 * time.Second)
		}
		if got, err := w.srv.ReadFile("bulk", "archive.tar"); err == nil && bytes.Equal(got, big) {
			t.Fatal("bulk transfer finished impossibly fast; test not discriminating")
		}

		// Eventually the bulk volume completes too.
		w.Sim.Sleep(15 * time.Minute)
		got, err := w.srv.ReadFile("bulk", "archive.tar")
		if err != nil || !bytes.Equal(got, big) {
			t.Fatalf("archive.tar = %d bytes, %v", len(got), err)
		}
		if n := v.CMLRecords(); n != 0 {
			t.Errorf("CML still holds %d records", n)
		}
	})
}
