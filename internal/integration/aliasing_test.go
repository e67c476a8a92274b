package integration

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/crashfs"
	"repro/internal/netsim"
	"repro/internal/venus"
	"repro/internal/wal"
	"repro/internal/world"
)

// TestContentsCopiedAtTrustEdges: file contents are shared, never copied,
// between cache, CML, server store and retained log (codafs.Object), which
// is only sound if every way in and out copies. Each buffer handed to a
// WriteFile — a client's written through, a client's logged and journaled
// and later reintegrated, one larger than a modem's chunk and so
// pre-shipped as fragments whose data the server decodes lent, a server's
// own — is scribbled over the moment the call returns, as is every slice a
// ReadFile returned, and the client's cache, its CML (read from its state
// image before it reintegrates) and all three journaled replicas must
// still hold what was written.
func TestContentsCopiedAtTrustEdges(t *testing.T) {
	w := world.New(5)
	grp := w.Group(true, "s0", "s1", "s2")
	if _, err := grp.CreateVolume("work"); err != nil {
		t.Fatal(err)
	}
	content := func(tag string) []byte { return bytes.Repeat([]byte(tag+";"), 6000/len(tag)) }
	scribble := func(b []byte) {
		for i := range b {
			b[i] = '#'
		}
	}
	want := map[string][]byte{} // relative path -> contents

	seeded := content("seeded by the server")
	want["seeded.dat"] = bytes.Clone(seeded)
	must(t, grp.WriteFile("work", "seeded.dat", seeded))
	scribble(seeded)

	w.Run(func() {
		v := w.Client("laptop", grp, venus.Config{ClientID: 1, AgingWindow: time.Second, TrickleInterval: time.Second})
		must(t, v.Mount("work"))
		_, err := v.AttachJournal(venus.JournalOptions{FS: crashfs.NewMem(), Dir: "vj", Policy: wal.SyncEachRecord})
		must(t, err)

		write := func(rel string, buf []byte) {
			want[rel] = bytes.Clone(buf)
			must(t, v.WriteFile("/coda/work/"+rel, buf))
			scribble(buf)
		}
		check := func(when string) {
			t.Helper()
			for rel, data := range want {
				for pass := 0; pass < 2; pass++ { // the first result is scribbled on; the second must not show it
					got, err := v.ReadFile("/coda/work/" + rel)
					if err != nil || !bytes.Equal(got, data) {
						t.Fatalf("%s: client read of %s (pass %d): %.40q, %v", when, rel, pass, got, err)
					}
					scribble(got)
				}
			}
		}

		write("through.dat", content("written through while hoarding"))
		check("connected")

		v.Disconnect()
		write("logged.dat", content("logged and journaled while disconnected"))
		write("through.dat", content("overwritten while disconnected"))
		// 60 KB, past the 36 KB chunk of a modem: its own chunk, and its
		// data pre-shipped in PutFragments before the Reintegrate (§4.3.5).
		write("fragmented.dat", bytes.Repeat(content("pre-shipped as fragments"), 10))
		check("disconnected")
		var img bytes.Buffer
		must(t, v.SaveState(&img))
		for _, rel := range []string{"logged.dat", "through.dat", "fragmented.dat"} {
			// The image is the CML; the cache was looked at through ReadFile.
			if n := bytes.Count(img.Bytes(), want[rel]); n != 1 {
				t.Fatalf("client image holds the contents of %s %d times, want once, in its CML record", rel, n)
			}
		}
		if bytes.Contains(img.Bytes(), []byte("####")) {
			t.Fatal("client image holds scribbled bytes")
		}

		for i := 0; i < grp.Len(); i++ {
			w.Net.SetLink("laptop", grp.Member(i).Addr(), netsim.Modem.Params())
		}
		v.Connect(9600)
		for deadline := w.Sim.Now().Add(time.Hour); v.CMLRecords() > 0 && w.Sim.Now().Before(deadline); {
			w.Sim.Sleep(100 * time.Millisecond)
		}
		w.Sim.Sleep(5 * time.Second) // ships to both peers land
		check("reintegrated")

		for i := 0; i < grp.Len(); i++ {
			for rel, data := range want {
				for pass := 0; pass < 2; pass++ {
					got, err := grp.Member(i).ReadFile("work", rel)
					if err != nil || !bytes.Equal(got, data) {
						t.Fatalf("member %d read of %s (pass %d): %.40q, %v", i, rel, pass, got, err)
					}
					scribble(got)
				}
			}
		}
		if _, _, err := grp.Identical(); err != nil {
			t.Fatal(err)
		}
		// What reached the disks is what was written: restart every member
		// from its journal alone and look again.
		for i := 0; i < grp.Len(); i++ {
			must(t, grp.Restart(i, ""))
			for rel, data := range want {
				if rel == "seeded.dat" {
					continue // administrative seeding is not journaled (DESIGN.md §4.10)
				}
				got, err := grp.Member(i).ReadFile("work", rel)
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("restarted member %d read of %s: %.40q, %v", i, rel, got, err)
				}
			}
		}
	})
}
