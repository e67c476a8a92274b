package server

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestServerSaveLoadRoundTrip(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("usr")
	w.srv.WriteFile("usr", "a/b/file.txt", []byte("persist me"))
	w.srv.MakeSymlink("usr", "link", "a/b/file.txt")
	stampBefore, _ := w.srv.VolumeStamp("usr")

	var buf bytes.Buffer
	if err := w.srv.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh server (a restart) restores the image.
	s2 := simtime.NewSim(simtime.Epoch1995)
	n2 := netsim.New(s2, 2)
	n2.SetDefaults(netsim.Ethernet.Params())
	srv2 := New(s2, n2.Host("server"))
	if err := srv2.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if data, err := srv2.ReadFile("usr", "a/b/file.txt"); err != nil || string(data) != "persist me" {
		t.Fatalf("restored file = %q, %v", data, err)
	}
	if stampAfter, _ := srv2.VolumeStamp("usr"); stampAfter != stampBefore {
		t.Errorf("volume stamp changed across restart: %d != %d", stampAfter, stampBefore)
	}

	// Mutations continue cleanly: new objects get fresh FIDs, stamps
	// advance from where they were.
	if _, err := srv2.WriteFile("usr", "post-restart.txt", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if stampAfter2, _ := srv2.VolumeStamp("usr"); stampAfter2 <= stampBefore {
		t.Error("stamp did not advance after restart")
	}
}

func TestServerRestartInvalidatesNothingForClients(t *testing.T) {
	// A client that cached state and volume stamps before the restart
	// validates successfully afterwards: stamps persist even though
	// callback promises do not.
	w := newWorld()
	w.srv.CreateVolume("usr")
	w.srv.WriteFile("usr", "f", []byte("stable"))

	var img bytes.Buffer
	w.sim.Run(func() {
		c := w.client("c1")
		gv := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "usr"})
		call[wire.GetVolumeStampRep](t, c, wire.GetVolumeStamp{Volume: gv.Info.ID})
		if err := w.srv.SaveState(&img); err != nil {
			t.Fatal(err)
		}
		// "Restart": new server instance at the same address.
		w.srv.Close()
		w.sim.Sleep(time.Second)
		srv2 := New(w.sim, w.net.Host("server2"))
		if err := srv2.LoadState(&img); err != nil {
			t.Fatal(err)
		}
		// Same stamp → the client's validation succeeds.
		c2 := w.client("c1b")
		rep, err := wire.Call[wire.ValidateVolumesRep](c2.node, "server2", wire.ValidateVolumes{
			Volumes: []wire.VolStampPair{{ID: gv.Info.ID, Stamp: gv.Info.Stamp}},
		}, callOpts())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Valid[0] {
			t.Error("volume stamp invalid after clean restart")
		}
	})
}

func TestLoadStateRefusesNonEmptyServer(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("usr")
	var buf bytes.Buffer
	if err := w.srv.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := w.srv.LoadState(&buf); err == nil {
		t.Error("LoadState into a non-empty server accepted")
	}
}

// goldenServer builds the small fixed state whose image is pinned below:
// two volumes, a nested directory, a symlink, and one reintegrated store
// so the authorship and dedup tables are not empty.
func goldenServer(t testing.TB) *Server {
	t.Helper()
	w := newWorld()
	d := newSdriver(w.srv)
	for _, err := range []error{
		d.createVolume("usr"),
		d.createVolume("proj"),
		d.makeObject("usr", "f", d.root("usr"), "paper.tex", cml.Create),
		d.store("f", []byte("\\section{Weak connectivity}")),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	w.srv.WriteFile("usr", "a/b/file.txt", []byte("persist me"))
	w.srv.MakeSymlink("proj", "link", "a/b/file.txt")
	return w.srv
}

// TestServerImageGolden pins the image format byte for byte — a change
// here strands every snapshot on disk, so it must come with a version
// bump — and the re-encode identity: a loaded image saves to the bytes it
// was loaded from. Regenerate with: go test ./internal/server -run Golden -update
func TestServerImageGolden(t *testing.T) {
	const path = "testdata/golden/server.image"
	var buf bytes.Buffer
	if err := goldenServer(t).SaveState(&buf); err != nil {
		t.Fatal(err)
	}
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
	srv := newWorld().srv
	if err := srv.LoadState(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := srv.SaveState(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Errorf("loaded image re-encodes differently:\n got %x\nwant %x", again.Bytes(), want)
	}
}

// FuzzLoadState: whatever is in the snapshot file, LoadState returns nil
// or an error wrapping wire.ErrMalformed — it never panics — and an
// accepted image is canonical: encoding the volumes it decoded to, with
// the watermarks it carried, reproduces the input.
func FuzzLoadState(f *testing.F) {
	var buf bytes.Buffer
	if err := goldenServer(f).SaveState(&buf); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	f.Add(img)
	for _, n := range []int{0, 4, 5, 8, len(img) / 2, len(img) - 1} {
		f.Add(img[:n])
	}
	gobImage, err := os.ReadFile("testdata/parent_gob.image")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gobImage)
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeImage(data)
		// A bare registry, not newWorld: a world's daemons would outlive
		// every one of the fuzzer's thousands of executions a second.
		empty := &Server{volumes: make(map[codafs.VolumeID]*volume), byName: make(map[string]codafs.VolumeID)}
		lerr := empty.LoadState(bytes.NewReader(data))
		if (err == nil) != (lerr == nil) {
			t.Fatalf("decodeImage = %v but LoadState = %v", err, lerr)
		}
		if err != nil {
			if !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("error %v does not wrap ErrMalformed", err)
			}
			return
		}
		c := wire.NewEncoder(nil)
		img.walk(&c, true)
		if again := c.Bytes(); !bytes.Equal(again, data) {
			t.Fatalf("accepted image is not canonical:\n in %x\nout %x", data, again)
		}
	})
}
