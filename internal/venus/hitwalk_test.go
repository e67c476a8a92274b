package venus

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/codafs"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/simtime"
)

// The hit walk must be invisible: a lookup it serves leaves exactly the
// counters, recency stamps and results the general walk leaves. The tests
// here run the same script of lookups against identical worlds, one
// spelling every path cleanly (served by hitWalk whenever the cache can)
// and the others spelling it uncleanly (hitWalk refuses, so the general
// walk serves it), and demand identical snapshots after every step.

// newHitWorld builds a client whose cache holds a clean, a dirty, a suspect,
// a placeholder and hoarded objects, a suspect directory and an uncached
// one, and puts it in state. It must be called inside sim.Run.
func newHitWorld(t testing.TB, sim *simtime.Sim, state State) *Venus {
	t.Helper()
	net := netsim.New(sim, 11)
	net.SetDefaults(netsim.Ethernet.Params())
	srv := server.New(sim, net.Host("server"))
	if _, err := srv.CreateVolume("v"); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{
		"a/b/clean.txt", "a/b/dirty.txt", "a/b/hoarded.txt", "a/b/ph.txt",
		"a/b/suspect.txt", "a/cold/x.txt", "a/sdir/under.txt",
	} {
		if _, err := srv.WriteFile("v", rel, []byte("contents of "+rel)); err != nil {
			t.Fatal(err)
		}
	}
	v := New(sim, net.Host("c1"), Config{
		Server: "server", ClientID: 1, PinWriteDisconnected: true, Obs: obs.NewRegistry(sim),
	})
	if err := v.Mount("v"); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"a/b/clean.txt", "a/b/dirty.txt", "a/b/hoarded.txt", "a/b/suspect.txt", "a/sdir/under.txt"} {
		if _, err := v.ReadFile("/coda/v/" + rel); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Stat("/coda/v/a/b/ph.txt"); err != nil {
		t.Fatal(err)
	}
	if err := v.Symlink("clean.txt", "/coda/v/a/b/link"); err != nil {
		t.Fatal(err)
	}
	switch state {
	case Emulating:
		v.Disconnect()
	case WriteDisconnected:
		v.WriteDisconnect()
	}

	v.mu.Lock()
	defer v.mu.Unlock()
	at := func(rel string) *fso {
		f := v.cache.get(v.volumes["v"].root)
		for _, c := range strings.Split(rel, "/") {
			f = v.cache.get(f.obj.Children[c])
		}
		return f
	}
	at("a/b/dirty.txt").dirty = true
	at("a/b/suspect.txt").valid = false
	at("a/sdir").valid = false
	at("a/b/clean.txt").hoardPri = 50
	at("a/b").hoardPri = 300
	at("a/b/hoarded.txt").hoardPri = 900
	if !at("a/b/ph.txt").placeholder {
		t.Fatal("setup: ph.txt is not a placeholder")
	}
	return v
}

// snapshot renders everything a lookup may move.
func (v *Venus) snapshot() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "state=%v seq=%d used=%d stats=%+v\n", v.state, v.cache.seq, v.cache.used, v.stats)
	for i, band := range hoardBands {
		fmt.Fprintf(&b, "band %s: hits=%d misses=%d\n", band,
			v.met.cacheHits[i].Value(), v.met.cacheMisses[i].Value())
	}
	fids := make([]codafs.FID, 0, len(v.cache.objs))
	for fid := range v.cache.objs {
		fids = append(fids, fid)
	}
	sort.Slice(fids, func(i, j int) bool { return fids[i].Vnode < fids[j].Vnode })
	for _, fid := range fids {
		f := v.cache.objs[fid]
		fmt.Fprintf(&b, "%v ref=%d valid=%v dirty=%v ph=%v pri=%d len=%d\n",
			fid, f.refSeq, f.valid, f.dirty, f.placeholder, f.hoardPri, len(f.obj.Data))
	}
	for _, m := range v.misses {
		fmt.Fprintf(&b, "miss %+v\n", m)
	}
	return b.String()
}

type hitStep struct{ op, rel string }

var hitScript = []hitStep{
	{"read", "a/b/clean.txt"},
	{"stat", "a/b/clean.txt"},
	{"append", "a/b/clean.txt"},
	{"read", "a/b/dirty.txt"},
	{"read", "a/b/hoarded.txt"},
	{"stat", "a/b/ph.txt"},      // status of a placeholder is a hit
	{"read", "a/b/ph.txt"},      // its data is a miss
	{"read", "a/b/suspect.txt"}, // revalidated, or used as-is when emulating
	{"readdir", "a/b"},
	{"appenddir", "a/b"},
	{"readlink", "a/b/link"},
	{"readdir", "a/sdir"},        // suspect directory
	{"read", "a/sdir/under.txt"}, // ... and a miss half-way down
	{"read", "a/cold/x.txt"},     // uncached directory half-way down
	{"read", "a/b/nope.txt"},     // missing name after three hits
	{"read", "a/b"},              // a directory
	{"readdir", "a/b/clean.txt"}, // not a directory
	{"read", "a/b/clean.txt/x"},  // not a directory, half-way down
	{"parent", "a/b/new.txt"},
	{"parent", "a/b/clean.txt/new"}, // parent is a file
	{"parent", "a/cold/new"},
	{"stat", ""}, // the volume root
	{"readdir", ""},
	{"appenddir", "a/sdir"},
	{"appenddir", "a/b/clean.txt"},
	{"read", "a/b/hoarded.txt"},
}

// spellings[0] is the clean path; the rest are unclean spellings of it.
func spellings(rel string) []string {
	if rel == "" {
		return []string{"/coda/v", "/coda//v", "/coda/v/", "/coda/v/a/.."}
	}
	return []string{
		"/coda/v/" + rel,
		"/coda/v//" + strings.Replace(rel, "/", "/./", 1),
		"/coda/v/" + rel + "/",
		"/coda/v/a/../" + rel,
	}
}

func (v *Venus) runHitStep(st hitStep, spelling int) string {
	paths := spellings(st.rel)
	path := paths[spelling]
	var res string
	var err error
	switch st.op {
	case "read":
		var data []byte
		data, err = v.ReadFile(path)
		res = fmt.Sprintf("%q", data)
	case "append":
		var data []byte
		data, err = v.AppendFile([]byte("prefix:"), path)
		res = fmt.Sprintf("%q", data)
	case "stat":
		var s codafs.Status
		s, err = v.Stat(path)
		res = fmt.Sprintf("%+v", s)
	case "readdir":
		var names []string
		names, err = v.ReadDir(path)
		res = fmt.Sprint(names)
	case "appenddir":
		var names []string
		names, err = v.AppendDir([]string{"prefix"}, path)
		res = fmt.Sprint(names)
	case "readlink":
		res, err = v.ReadLink(path)
	case "parent":
		var parent *fso
		var name string
		_, parent, name, err = v.resolveParent(path)
		if err == nil {
			res = fmt.Sprintf("%v %q", parent.obj.Status.FID, name)
		}
	}
	if err != nil {
		// Errors may quote the caller's spelling; nothing else differs.
		res += " err=" + strings.ReplaceAll(err.Error(), path, paths[0])
	}
	return fmt.Sprintf("%s %s -> %s\n%s", st.op, st.rel, res, v.snapshot())
}

func TestHitWalkAccountingMatchesGeneralWalk(t *testing.T) {
	for _, state := range []State{Hoarding, WriteDisconnected, Emulating} {
		t.Run(state.String(), func(t *testing.T) {
			var logs [4][]string
			for sp := range logs {
				sim := simtime.NewSim(simtime.Epoch1995)
				sim.Run(func() {
					v := newHitWorld(t, sim, state)
					logs[sp] = append(logs[sp], v.snapshot())
					for _, st := range hitScript {
						logs[sp] = append(logs[sp], v.runHitStep(st, sp))
					}
					v.Close()
				})
			}
			for sp := 1; sp < len(logs); sp++ {
				for i := range logs[0] {
					if logs[sp][i] != logs[0][i] {
						t.Fatalf("spelling %d diverges from the clean path at step %d:\n--- clean\n%s--- unclean\n%s",
							sp, i, logs[0][i], logs[sp][i])
					}
				}
			}
		})
	}
}

// TestHitWalkServesOrCountsNothing pins the two halves of hitWalk's
// contract directly, so the equivalence test above cannot pass vacuously
// (a hitWalk that always refused would also be "equivalent").
func TestHitWalkServesOrCountsNothing(t *testing.T) {
	sim := simtime.NewSim(simtime.Epoch1995)
	sim.Run(func() {
		v := newHitWorld(t, sim, Hoarding)
		defer v.Close()

		for _, tc := range []struct {
			path     string
			wantData bool
		}{
			{"/coda/v/a/b/clean.txt", true},
			{"/coda/v/a/b/dirty.txt", true},
			{"/coda/v/a/b/ph.txt", false},
			{"/coda/v/a/b", true},
			{"/coda/v", true},
		} {
			before := v.snapshot()
			if _, f := v.hitWalk(tc.path, tc.wantData); f == nil {
				t.Errorf("hitWalk(%q) refused a lookup the cache can serve", tc.path)
			}
			if v.snapshot() == before {
				t.Errorf("hitWalk(%q) served a lookup without recording it", tc.path)
			}
		}

		deep := "/coda/v" + strings.Repeat("/d", maxHitDepth)
		for _, path := range []string{
			"/coda/v/a/b/ph.txt",       // placeholder, data wanted
			"/coda/v/a/b/suspect.txt",  // suspect leaf
			"/coda/v/a/sdir/under.txt", // suspect directory on the way
			"/coda/v/a/cold/x.txt",     // uncached directory on the way
			"/coda/v/a/b/nope.txt",     // no such name
			"/coda/v/a/b/clean.txt/x",  // file on the way
			"/coda/nosuchvol/a",        // unmounted volume
			"/coda/v//a/b/clean.txt", "/coda/v/a/./b/clean.txt", "/coda/v/a/b/../b/clean.txt",
			"/coda/v/a/b/clean.txt/", "/coda/v/", "/coda", "/codav/a", "/elsewhere/v/a", "",
			deep,
		} {
			before := v.snapshot()
			if _, f := v.hitWalk(path, true); f != nil {
				t.Errorf("hitWalk(%q) served a lookup it must leave to the general walk", path)
			}
			if after := v.snapshot(); after != before {
				t.Errorf("hitWalk(%q) refused but left a trace:\n--- before\n%s--- after\n%s", path, before, after)
			}
		}
	})
}

func TestAppendFile(t *testing.T) {
	sim := simtime.NewSim(simtime.Epoch1995)
	sim.Run(func() {
		v := newHitWorld(t, sim, Hoarding)
		defer v.Close()
		const path, want = "/coda/v/a/b/clean.txt", "contents of a/b/clean.txt"

		buf := make([]byte, 0, 256)
		buf = append(buf, "kept:"...)
		got, err := v.AppendFile(buf, path)
		if err != nil || string(got) != "kept:"+want {
			t.Fatalf("AppendFile = %q, %v", got, err)
		}
		if &got[0] != &buf[0] {
			t.Error("AppendFile reallocated a buffer that had room")
		}

		// Mutating the result must not reach the cache.
		for i := range got {
			got[i] = 'X'
		}
		if again, err := v.ReadFile(path); err != nil || string(again) != want {
			t.Errorf("re-read after mutating the result = %q, %v", again, err)
		}

		// Errors return dst as it was.
		copy(buf[:5], "kept:")
		for _, bad := range []string{"/coda/v/a/b/nope.txt", "/coda/v/a/b"} {
			got, err := v.AppendFile(buf[:5], bad)
			if err == nil || string(got) != "kept:" || &got[0] != &buf[0] {
				t.Errorf("AppendFile(%q) = %q, %v; want dst unchanged and an error", bad, got, err)
			}
		}
		if got, err := v.AppendFile(nil, "/coda/v/a/b/nope.txt"); got != nil || err == nil {
			t.Errorf("AppendFile(nil, missing) = %v, %v", got, err)
		}
	})
}

func TestAppendDir(t *testing.T) {
	sim := simtime.NewSim(simtime.Epoch1995)
	sim.Run(func() {
		v := newHitWorld(t, sim, Hoarding)
		defer v.Close()
		const path = "/coda/v/a/b"
		want := []string{"clean.txt", "dirty.txt", "hoarded.txt", "link", "ph.txt", "suspect.txt"}

		buf := make([]string, 1, 16)
		buf[0] = "kept"
		got, err := v.AppendDir(buf, path)
		if err != nil || !slices.Equal(got, append([]string{"kept"}, want...)) {
			t.Fatalf("AppendDir = %q, %v", got, err)
		}
		if &got[0] != &buf[0] {
			t.Error("AppendDir reallocated a slice that had room")
		}

		// Mutating the result must not reach the kept listing.
		for i := range got {
			got[i] = "X"
		}
		if again, err := v.ReadDir(path); err != nil || !slices.Equal(again, want) {
			t.Errorf("re-list after mutating the result = %q, %v", again, err)
		}

		// Errors return dst as it was.
		buf[0] = "kept"
		for _, bad := range []string{"/coda/v/a/b/nope", "/coda/v/a/b/clean.txt"} {
			got, err := v.AppendDir(buf[:1], bad)
			if err == nil || len(got) != 1 || got[0] != "kept" || &got[0] != &buf[0] {
				t.Errorf("AppendDir(%q) = %q, %v; want dst unchanged and an error", bad, got, err)
			}
		}
		if got, err := v.AppendDir(nil, "/coda/v/a/b/nope"); got != nil || err == nil {
			t.Errorf("AppendDir(nil, missing) = %v, %v", got, err)
		}
	})
}
