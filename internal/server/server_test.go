package server

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/simtime"
	"repro/internal/wire"
)

type world struct {
	sim *simtime.Sim
	net *netsim.Network
	srv *Server
}

func newWorld() *world {
	s := simtime.NewSim(simtime.Epoch1995)
	n := netsim.New(s, 1)
	n.SetDefaults(netsim.Ethernet.Params())
	return &world{sim: s, net: n, srv: New(s, n.Host("server"))}
}

type tclient struct {
	node   *rpc2.Node
	addr   string
	breaks *simtime.Queue[wire.CallbackBreak]
}

func (w *world) client(name string) *tclient {
	c := &tclient{addr: name, breaks: simtime.NewQueue[wire.CallbackBreak](w.sim)}
	c.node = rpc2.NewNode(w.sim, w.net.Host(name), netmon.NewMonitor(w.sim), func(src string, _ obs.SpanContext, body []byte) ([]byte, error) {
		v, err := wire.Decode(body)
		if err != nil {
			return nil, err
		}
		if brk, ok := v.(wire.CallbackBreak); ok {
			c.breaks.Put(brk)
			return wire.Encode(wire.CallbackBreakRep{})
		}
		return nil, errors.New("unexpected call")
	}, nil)
	return c
}

func call[Rep any](t *testing.T, c *tclient, req any) Rep {
	t.Helper()
	rep, err := wire.Call[Rep](c.node, "server", req, rpc2.CallOpts{})
	if err != nil {
		t.Fatalf("%T: %v", req, err)
	}
	return rep
}

func TestAdminVolumeAndFiles(t *testing.T) {
	w := newWorld()
	if _, err := w.srv.CreateVolume("usr"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.srv.CreateVolume("usr"); err == nil {
		t.Error("duplicate volume accepted")
	}
	if _, err := w.srv.WriteFile("usr", "hqb/papers/s15.bib", []byte("bib")); err != nil {
		t.Fatal(err)
	}
	data, err := w.srv.ReadFile("usr", "hqb/papers/s15.bib")
	if err != nil || string(data) != "bib" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	st, err := w.srv.Resolve("usr", "hqb/papers")
	if err != nil || st.Type != codafs.Directory {
		t.Fatalf("Resolve dir = %+v, %v", st, err)
	}
	// Overwrite bumps both object version and volume stamp.
	before, _ := w.srv.VolumeStamp("usr")
	st1, _ := w.srv.Resolve("usr", "hqb/papers/s15.bib")
	if _, err := w.srv.WriteFile("usr", "hqb/papers/s15.bib", []byte("bib2")); err != nil {
		t.Fatal(err)
	}
	st2, _ := w.srv.Resolve("usr", "hqb/papers/s15.bib")
	after, _ := w.srv.VolumeStamp("usr")
	if st2.Version <= st1.Version || after <= before {
		t.Error("versions not bumped on overwrite")
	}
}

// TestAdminWritesMakeWhatClientsMake: an administrative write makes the
// statuses a client's records make. Under "a" the server writes a file
// two directories deep, a directory and a symlink; under "ca" a client
// makes the same tree over RPC, its records naming the owner the
// server's do. Each object must match its twin in every status field
// but identity, version and time.
func TestAdminWritesMakeWhatClientsMake(t *testing.T) {
	const data, target = "0123456789", "../x/y/z.c"
	w := newWorld()
	w.srv.CreateVolume("v")
	if _, err := w.srv.WriteFile("v", "a/b/f", []byte(data)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.srv.MakeDir("v", "a/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.srv.MakeSymlink("v", "a/ln", target); err != nil {
		t.Fatal(err)
	}
	w.sim.Run(func() {
		c := w.client("c1")
		gv := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "v"})
		mk := func(n uint64, dir codafs.FID, name string, typ codafs.ObjType, target string) codafs.Status {
			return call[wire.MutateRep](t, c, wire.MakeObject{
				Parent: dir, Name: name, FID: clientFID(gv.Info.ID, n), Type: typ, Target: target, Owner: "root",
			}).Status
		}
		ca := mk(1, gv.Root.FID, "ca", codafs.Directory, "").FID
		b := mk(2, ca, "b", codafs.Directory, "").FID
		f := mk(3, b, "f", codafs.File, "")
		call[wire.MutateRep](t, c, wire.StoreOp{FID: f.FID, Data: []byte(data), PrevVersion: f.Version})
		mk(4, ca, "d", codafs.Directory, "")
		mk(5, ca, "ln", codafs.Symlink, target)
	})
	show := func(st codafs.Status) string {
		return fmt.Sprintf("%v links %d mode %o length %d owner %q", st.Type, st.Links, st.Mode, st.Length, st.Owner)
	}
	for _, p := range []string{"", "/b", "/b/f", "/d", "/ln"} {
		admin, err := w.srv.Resolve("v", "a"+p)
		if err != nil {
			t.Fatal(err)
		}
		client, err := w.srv.Resolve("v", "ca"+p)
		if err != nil {
			t.Fatal(err)
		}
		if show(admin) != show(client) {
			t.Errorf("a%s: admin-made %s, client-made %s", p, show(admin), show(client))
		}
	}
}

func TestGetVolumeAndFetchRPC(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("proj")
	w.srv.WriteFile("proj", "src/main.c", []byte("int main(){}"))
	w.sim.Run(func() {
		c := w.client("c1")
		gv := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "proj"})
		if gv.Info.Name != "proj" || gv.Root.Type != codafs.Directory {
			t.Fatalf("GetVolume = %+v", gv)
		}
		root := call[wire.FetchRep](t, c, wire.Fetch{FID: gv.Root.FID, WantCallback: true})
		srcFID, ok := root.Object.Children["src"]
		if !ok {
			t.Fatal("root has no src entry")
		}
		dir := call[wire.FetchRep](t, c, wire.Fetch{FID: srcFID, WantCallback: true})
		f := call[wire.FetchRep](t, c, wire.Fetch{FID: dir.Object.Children["main.c"], WantCallback: true})
		if string(f.Object.Data) != "int main(){}" {
			t.Errorf("file data = %q", f.Object.Data)
		}
		ga := call[wire.GetAttrRep](t, c, wire.GetAttr{FID: f.Object.Status.FID})
		if ga.Status.Length != int64(len("int main(){}")) {
			t.Errorf("GetAttr length = %d", ga.Status.Length)
		}
	})
}

func TestObjectAndVolumeCallbackBreaks(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("proj")
	w.srv.WriteFile("proj", "f.c", []byte("v1"))
	w.sim.Run(func() {
		c := w.client("c1")
		gv := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "proj"})
		root := call[wire.FetchRep](t, c, wire.Fetch{FID: gv.Root.FID, WantCallback: true})
		fid := root.Object.Children["f.c"]
		call[wire.FetchRep](t, c, wire.Fetch{FID: fid, WantCallback: true})
		call[wire.GetVolumeStampRep](t, c, wire.GetVolumeStamp{Volume: gv.Info.ID})

		// Another writer updates the file: the client must get an object
		// break for f.c and a volume break for proj.
		w.srv.WriteFile("proj", "f.c", []byte("v2"))
		gotObj, gotVol := false, false
		deadline := w.sim.Now().Add(time.Minute)
		for (!gotObj || !gotVol) && w.sim.Now().Before(deadline) {
			brk, ok := c.breaks.GetTimeout(10 * time.Second)
			if !ok {
				break
			}
			for _, f := range brk.FIDs {
				if f == fid {
					gotObj = true
				}
			}
			for _, vID := range brk.Volumes {
				if vID == gv.Info.ID {
					gotVol = true
				}
			}
		}
		if !gotObj || !gotVol {
			t.Errorf("breaks: obj=%v vol=%v", gotObj, gotVol)
		}
		if w.srv.Stats().BreaksSent == 0 {
			t.Error("BreaksSent stat not counted")
		}
	})
}

func TestValidateVolumes(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("a")
	w.srv.CreateVolume("b")
	w.srv.WriteFile("b", "x", []byte("1"))
	w.sim.Run(func() {
		c := w.client("c1")
		ga := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "a"})
		gb := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "b"})

		// Stale stamp for b, current for a, one unknown volume.
		rep := call[wire.ValidateVolumesRep](t, c, wire.ValidateVolumes{Volumes: []wire.VolStampPair{
			{ID: ga.Info.ID, Stamp: ga.Info.Stamp},
			{ID: gb.Info.ID, Stamp: gb.Info.Stamp - 1},
			{ID: 999, Stamp: 1},
		}})
		if !rep.Valid[0] || rep.Valid[1] || rep.Valid[2] {
			t.Errorf("Valid = %v, want [true false false]", rep.Valid)
		}
		if rep.Stamps[1] != gb.Info.Stamp {
			t.Errorf("stale volume: got stamp %d, want %d", rep.Stamps[1], gb.Info.Stamp)
		}

		// A valid validation granted a volume callback: update volume a
		// and expect a break.
		w.srv.WriteFile("a", "y", []byte("2"))
		brk, ok := c.breaks.GetTimeout(time.Minute)
		if !ok {
			t.Fatal("no break after validated volume updated")
		}
		found := false
		for _, id := range brk.Volumes {
			if id == ga.Info.ID {
				found = true
			}
		}
		if !found {
			t.Error("break did not name volume a")
		}
	})
}

func clientFID(vol codafs.VolumeID, n uint64) codafs.FID {
	return codafs.FID{Volume: vol, Vnode: 1<<40 + n, Unique: 1<<40 + n}
}

func TestConnectedMutations(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("v")
	w.sim.Run(func() {
		c := w.client("c1")
		gv := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "v"})
		vol := gv.Info.ID
		root := gv.Root.FID

		mk := call[wire.MutateRep](t, c, wire.MakeObject{
			Parent: root, Name: "f", FID: clientFID(vol, 1), Type: codafs.File, Owner: "hqb",
		})
		if mk.Status.Type != codafs.File || mk.ParentStatus.FID != root {
			t.Fatalf("MakeObject = %+v", mk)
		}
		st := call[wire.MutateRep](t, c, wire.StoreOp{
			FID: mk.Status.FID, Data: []byte("hello"), PrevVersion: mk.Status.Version,
		})
		if st.Status.Length != 5 {
			t.Errorf("store length = %d", st.Status.Length)
		}

		// Stale-version store from another client conflicts.
		c2 := w.client("c2")
		_, err := wire.Call[wire.MutateRep](c2.node, "server", wire.StoreOp{
			FID: mk.Status.FID, Data: []byte("clobber"), PrevVersion: mk.Status.Version,
		}, rpc2.CallOpts{})
		var re *rpc2.RemoteError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "conflict") {
			t.Errorf("stale store: %v, want conflict", err)
		}

		// SetAttr, Mkdir, Rename, Link, Remove.
		call[wire.MutateRep](t, c, wire.SetAttrOp{FID: mk.Status.FID, Mode: 0600, PrevVersion: st.Status.Version})
		md := call[wire.MutateRep](t, c, wire.MakeObject{
			Parent: root, Name: "d", FID: clientFID(vol, 2), Type: codafs.Directory,
		})
		call[wire.MutateRep](t, c, wire.RenameOp{
			Parent: root, Name: "f", NewParent: md.Status.FID, NewName: "g", FID: mk.Status.FID,
		})
		if _, err := w.srv.ReadFile("v", "d/g"); err != nil {
			t.Errorf("rename lost file: %v", err)
		}
		call[wire.MutateRep](t, c, wire.LinkOp{Parent: root, Name: "hard", FID: mk.Status.FID})
		call[wire.MutateRep](t, c, wire.RemoveOp{Parent: md.Status.FID, Name: "g", FID: mk.Status.FID})
		// Still reachable through the hard link.
		if _, err := w.srv.ReadFile("v", "hard"); err != nil {
			t.Errorf("hard link broken after remove: %v", err)
		}
		call[wire.MutateRep](t, c, wire.RemoveOp{Parent: root, Name: "hard", FID: mk.Status.FID})
		call[wire.MutateRep](t, c, wire.RemoveOp{Parent: root, Name: "d", FID: md.Status.FID, Rmdir: true})
		if _, err := w.srv.Resolve("v", "d"); err == nil {
			t.Error("rmdir left directory behind")
		}
	})
}

func reintegrateRecords(vol codafs.VolumeID, root codafs.FID) []cml.Record {
	return []cml.Record{
		{Kind: cml.Create, FID: clientFID(vol, 10), Parent: root, Name: "notes.txt", Owner: "hqb"},
		{Kind: cml.Store, FID: clientFID(vol, 10), Data: []byte("trip notes"), Length: 10},
		{Kind: cml.Mkdir, FID: clientFID(vol, 11), Parent: root, Name: "photos"},
	}
}

func TestReintegrateSuccess(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("v")
	w.sim.Run(func() {
		c := w.client("c1")
		gv := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "v"})
		rep := call[wire.ReintegrateRep](t, c, wire.Reintegrate{
			Volume: gv.Info.ID, Records: reintegrateRecords(gv.Info.ID, gv.Root.FID),
		})
		if !rep.Applied {
			t.Fatalf("not applied: %+v", rep.Results)
		}
		if data, err := w.srv.ReadFile("v", "notes.txt"); err != nil || string(data) != "trip notes" {
			t.Errorf("reintegrated file = %q, %v", data, err)
		}
		if len(rep.Statuses) == 0 || rep.VolStamp == 0 {
			t.Error("reply missing statuses/stamp")
		}
		if w.srv.Stats().RecordsApplied != 3 {
			t.Errorf("RecordsApplied = %d", w.srv.Stats().RecordsApplied)
		}
	})
}

func TestReintegrateAtomicOnConflict(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("v")
	w.srv.WriteFile("v", "taken", []byte("already here"))
	w.sim.Run(func() {
		c := w.client("c1")
		gv := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "v"})
		stampBefore, _ := w.srv.VolumeStamp("v")
		recs := []cml.Record{
			{Kind: cml.Create, FID: clientFID(gv.Info.ID, 20), Parent: gv.Root.FID, Name: "ok.txt"},
			// Conflicts: name exists on server.
			{Kind: cml.Create, FID: clientFID(gv.Info.ID, 21), Parent: gv.Root.FID, Name: "taken"},
		}
		rep := call[wire.ReintegrateRep](t, c, wire.Reintegrate{Volume: gv.Info.ID, Records: recs})
		if rep.Applied {
			t.Fatal("conflicting chunk applied")
		}
		if !rep.Results[0].OK || !rep.Results[1].Conflict {
			t.Errorf("results = %+v", rep.Results)
		}
		// Atomicity: even the non-conflicting record left no trace.
		if _, err := w.srv.Resolve("v", "ok.txt"); err == nil {
			t.Error("partial reintegration visible")
		}
		if stampAfter, _ := w.srv.VolumeStamp("v"); stampAfter != stampBefore {
			t.Error("volume stamp moved on failed reintegration")
		}
	})
}

func TestReintegrateStoreIDRuleAcrossChunks(t *testing.T) {
	// A client's second chunk updates an object its first chunk already
	// updated; PrevVersion is stale but the divergence is its own work.
	w := newWorld()
	w.srv.CreateVolume("v")
	w.srv.WriteFile("v", "doc", []byte("v0"))
	w.sim.Run(func() {
		c := w.client("c1")
		gv := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "v"})
		st, _ := w.srv.Resolve("v", "doc")

		chunk1 := []cml.Record{{Kind: cml.Store, FID: st.FID, Data: []byte("v1"), Length: 2, PrevVersion: st.Version}}
		rep1 := call[wire.ReintegrateRep](t, c, wire.Reintegrate{Volume: gv.Info.ID, Records: chunk1})
		if !rep1.Applied {
			t.Fatalf("chunk1: %+v", rep1.Results)
		}
		// Same stale PrevVersion as chunk1 (logged before chunk1 shipped).
		chunk2 := []cml.Record{{Kind: cml.Store, FID: st.FID, Data: []byte("v2"), Length: 2, PrevVersion: st.Version}}
		rep2 := call[wire.ReintegrateRep](t, c, wire.Reintegrate{Volume: gv.Info.ID, Records: chunk2})
		if !rep2.Applied {
			t.Fatalf("chunk2 rejected: %+v — storeid rule broken", rep2.Results)
		}

		// But after ANOTHER client writes, the same trick must conflict.
		w.srv.WriteFile("v", "doc", []byte("intruder"))
		chunk3 := []cml.Record{{Kind: cml.Store, FID: st.FID, Data: []byte("v3"), Length: 2, PrevVersion: st.Version}}
		rep3 := call[wire.ReintegrateRep](t, c, wire.Reintegrate{Volume: gv.Info.ID, Records: chunk3})
		if rep3.Applied {
			t.Error("update/update conflict not detected")
		}
	})
}

func TestFragmentedStoreReintegration(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("v")
	w.srv.WriteFile("v", "big", nil)
	w.sim.Run(func() {
		c := w.client("c1")
		gv := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "v"})
		st, _ := w.srv.Resolve("v", "big")

		content := bytes.Repeat([]byte("x"), 10_000)
		const xfer = 7
		// Ship in three fragments, with a duplicate resend in the middle.
		frags := [][2]int{{0, 4000}, {4000, 8000}, {4000, 8000}, {8000, 10_000}}
		var received int64
		for _, f := range frags {
			rep := call[wire.PutFragmentRep](t, c, wire.PutFragment{
				Transfer: xfer, Offset: int64(f[0]), Total: int64(len(content)),
				Data: content[f[0]:f[1]],
			})
			received = rep.Received
		}
		if received != int64(len(content)) {
			t.Fatalf("received = %d, want %d", received, len(content))
		}

		rep := call[wire.ReintegrateRep](t, c, wire.Reintegrate{
			Volume: gv.Info.ID,
			Records: []cml.Record{{
				Kind: cml.Store, FID: st.FID, PrevVersion: st.Version, Length: int64(len(content)),
			}},
			Fragments: map[int]uint64{0: xfer},
		})
		if !rep.Applied {
			t.Fatalf("fragmented store rejected: %+v", rep.Results)
		}
		got, _ := w.srv.ReadFile("v", "big")
		if !bytes.Equal(got, content) {
			t.Errorf("assembled file wrong: %d bytes", len(got))
		}
	})
}

// TestFragmentBufferAdoptedWithoutSlack: the reassembly buffer becomes the
// file's contents without a copy, so what append's growth left behind the
// last fragment must not stay pinned with them: a buffer with more than an
// eighth to spare is copied to size when it is attached. A refused chunk
// keeps its fragments, which is where the attached buffer can be seen.
func TestFragmentBufferAdoptedWithoutSlack(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("v")
	w.sim.Run(func() {
		c := w.client("c1")
		gv := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "v"})
		for xfer, cuts := range [][]int{
			{0, 4000, 4090}, // the last fragment fits the array the first one got: attached as it is
			{0, 8000, 8200}, // the last 200 bytes grow the array by a quarter: copied to size
		} {
			name := "big" + string(rune('0'+xfer))
			w.srv.WriteFile("v", name, nil)
			st, _ := w.srv.Resolve("v", name)
			content := bytes.Repeat([]byte{byte('a' + xfer)}, cuts[len(cuts)-1])
			for i := 1; i < len(cuts); i++ {
				call[wire.PutFragmentRep](t, c, wire.PutFragment{
					Transfer: uint64(xfer), Offset: int64(cuts[i-1]), Total: int64(len(content)), Data: content[cuts[i-1]:cuts[i]],
				})
			}
			reintegrate := func(prev uint64) bool {
				return call[wire.ReintegrateRep](t, c, wire.Reintegrate{
					Volume:    gv.Info.ID,
					Records:   []cml.Record{{Kind: cml.Store, FID: st.FID, PrevVersion: prev, Length: int64(len(content))}},
					Fragments: map[int]uint64{0: uint64(xfer)},
				}).Applied
			}
			if reintegrate(st.Version + 1) {
				t.Fatalf("%s: stale store applied", name)
			}
			w.srv.fragMu.Lock()
			buf := w.srv.frags[fragKey{client: "c1", transfer: uint64(xfer)}].data
			w.srv.fragMu.Unlock()
			if n := len(content); len(buf) != n || cap(buf) > n+n/8 {
				t.Errorf("%s: attached buffer has len %d cap %d for %d bytes", name, len(buf), cap(buf), n)
			}
			if !reintegrate(st.Version) {
				t.Fatalf("%s: fragmented store rejected", name)
			}
			v, _ := w.srv.volByName("v")
			v.mu.Lock()
			data := v.objects[st.FID].Data
			v.mu.Unlock()
			if !bytes.Equal(data, content) {
				t.Errorf("%s: assembled file wrong: %d bytes", name, len(data))
			}
			if &data[0] != &buf[0] || cap(data) != len(data) {
				t.Errorf("%s: contents are not the attached buffer capped at its length (cap %d)", name, cap(data))
			}
		}
	})
}

func TestFragmentGapReportsResumePoint(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("v")
	w.sim.Run(func() {
		c := w.client("c1")
		rep := call[wire.PutFragmentRep](t, c, wire.PutFragment{Transfer: 9, Offset: 0, Total: 100, Data: make([]byte, 40)})
		if rep.Received != 40 {
			t.Fatalf("Received = %d", rep.Received)
		}
		// A gap: server reports where to resume.
		rep = call[wire.PutFragmentRep](t, c, wire.PutFragment{Transfer: 9, Offset: 80, Total: 100, Data: make([]byte, 20)})
		if rep.Received != 40 {
			t.Errorf("gap accepted? Received = %d, want 40", rep.Received)
		}
	})
}

func TestReintegrateIncompleteFragmentRejected(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("v")
	w.srv.WriteFile("v", "big", nil)
	w.sim.Run(func() {
		c := w.client("c1")
		gv := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "v"})
		st, _ := w.srv.Resolve("v", "big")
		call[wire.PutFragmentRep](t, c, wire.PutFragment{Transfer: 5, Offset: 0, Total: 100, Data: make([]byte, 50)})
		_, err := wire.Call[wire.ReintegrateRep](c.node, "server", wire.Reintegrate{
			Volume:    gv.Info.ID,
			Records:   []cml.Record{{Kind: cml.Store, FID: st.FID, PrevVersion: st.Version, Length: 100}},
			Fragments: map[int]uint64{0: 5},
		}, rpc2.CallOpts{})
		if err == nil {
			t.Error("reintegrate with incomplete fragment succeeded")
		}
	})
}

func TestListVolumes(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("a")
	w.srv.CreateVolume("b")
	w.sim.Run(func() {
		c := w.client("c1")
		rep := call[wire.ListVolumesRep](t, c, wire.ListVolumes{})
		if len(rep.Infos) != 2 {
			t.Errorf("ListVolumes = %d entries", len(rep.Infos))
		}
	})
}

func TestUpdaterKeepsOwnVolumeCallback(t *testing.T) {
	// A client updating through the server must not have its own volume
	// callback broken (it learns the new stamp from the reply).
	w := newWorld()
	w.srv.CreateVolume("v")
	w.sim.Run(func() {
		c := w.client("c1")
		gv := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "v"})
		call[wire.GetVolumeStampRep](t, c, wire.GetVolumeStamp{Volume: gv.Info.ID})
		call[wire.MutateRep](t, c, wire.MakeObject{
			Parent: gv.Root.FID, Name: "mine", FID: clientFID(gv.Info.ID, 1), Type: codafs.File,
		})
		if _, ok := c.breaks.GetTimeout(30 * time.Second); ok {
			t.Error("client received a break for its own update")
		}
	})
}

// callOpts returns default options for ad-hoc calls in tests.
func callOpts() rpc2.CallOpts { return rpc2.CallOpts{} }

// TestLinkIntoNonDirectoryRefused: a link record whose parent names a
// file is refused like any other malformed record, not applied to the
// file's (absent) entries.
func TestLinkIntoNonDirectoryRefused(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("v")
	w.srv.WriteFile("v", "a", []byte("a"))
	w.srv.WriteFile("v", "b", []byte("b"))
	w.sim.Run(func() {
		c := w.client("c1")
		gv := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "v"})
		a, _ := w.srv.Resolve("v", "a")
		b, _ := w.srv.Resolve("v", "b")
		rep := call[wire.ReintegrateRep](t, c, wire.Reintegrate{Volume: gv.Info.ID, Records: []cml.Record{
			{Kind: cml.Link, FID: a.FID, Parent: b.FID, Name: "x"},
		}})
		if rep.Applied || rep.Results[0].OK || rep.Results[0].Conflict {
			t.Errorf("link into a file: %+v, want a refusal that is no conflict", rep.Results)
		}
	})
}

// TestReplayedCreateConflicts: a connected-mode create whose reply was
// lost after the server applied it is logged and reintegrated again with
// the same FID. Its name is taken, so it is a create/create conflict,
// which the client drops from its log, not a failure that would hold the
// head of the log and abort every later reintegration.
func TestReplayedCreateConflicts(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("v")
	w.sim.Run(func() {
		c := w.client("c1")
		gv := call[wire.GetVolumeRep](t, c, wire.GetVolume{Name: "v"})
		rec := cml.Record{Kind: cml.Create, FID: clientFID(gv.Info.ID, 10), Parent: gv.Root.FID, Name: "n", Owner: "hqb"}
		if rep := call[wire.ReintegrateRep](t, c, wire.Reintegrate{Volume: gv.Info.ID, Records: []cml.Record{rec}}); !rep.Applied {
			t.Fatalf("first create: %+v", rep.Results)
		}
		rep := call[wire.ReintegrateRep](t, c, wire.Reintegrate{Volume: gv.Info.ID, Records: []cml.Record{rec}})
		if rep.Applied || !rep.Results[0].Conflict {
			t.Errorf("replayed create: %+v, want a conflict", rep.Results)
		}
	})
}

// refused runs each request as a connected-mode update and demands that
// the server refuse it.
func refused(t *testing.T, w *world, reqs map[string]any) {
	t.Helper()
	w.sim.Run(func() {
		defer w.srv.Close()
		for name, req := range reqs {
			if _, err := w.srv.mutate("c1", obs.SpanContext{}, req); err == nil {
				t.Errorf("%s: accepted", name)
			}
		}
	})
}

// TestLinkRefusesInvalidName: a link enters a name in a directory, so
// the name must be one a create or rename could enter.
func TestLinkRefusesInvalidName(t *testing.T) {
	w := newWorld()
	if _, err := w.srv.CreateVolume("v"); err != nil {
		t.Fatal(err)
	}
	f, _ := w.srv.WriteFile("v", "f", []byte("x"))
	root, _ := w.srv.Resolve("v", "")
	reqs := map[string]any{}
	for _, name := range []string{"", ".", "..", "x/y"} {
		reqs["link "+name] = wire.LinkOp{Parent: root.FID, Name: name, FID: f.FID}
	}
	refused(t, w, reqs)
	if root2, _ := w.srv.Resolve("v", ""); root2.Length != root.Length {
		t.Errorf("root length %d after refused links, want %d", root2.Length, root.Length)
	}
}

// TestRenameRefusesCycle: moving a directory into itself or below itself
// would detach it and everything under it from the volume.
func TestRenameRefusesCycle(t *testing.T) {
	w := newWorld()
	if _, err := w.srv.CreateVolume("v"); err != nil {
		t.Fatal(err)
	}
	e, _ := w.srv.MakeDir("v", "d/e")
	d, _ := w.srv.Resolve("v", "d")
	root, _ := w.srv.Resolve("v", "")
	refused(t, w, map[string]any{
		"d into d":   wire.RenameOp{Parent: root.FID, Name: "d", NewParent: d.FID, NewName: "d", FID: d.FID},
		"d into d/e": wire.RenameOp{Parent: root.FID, Name: "d", NewParent: e.FID, NewName: "d", FID: d.FID},
	})
	if _, err := w.srv.Resolve("v", "d/e"); err != nil {
		t.Errorf("d/e after refused renames: %v", err)
	}
}
