package venus

import (
	"errors"
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

// The memo must be invisible, and the walk must count what the general
// walk it replaced counted: a lookup leaves exactly the counters, recency
// stamps and results of refResolve, that general walk kept here as the
// reference. The tests run the same lookups against identical worlds by
// the memo, by the walk and by refResolve, and demand identical
// snapshots after every step.

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

// refResolve is the general walk Venus resolved a path by before it had
// one walk, kept as the reference the walk is compared with: the volume
// split off by codafs.SplitPath, one getObject per component, and the
// walked path rebuilt by codafs.JoinPath and appending.
func (v *Venus) refResolve(path string, wantData bool) (*vclient, *fso, error) {
	volName, comps, err := codafs.SplitPath(path)
	if err != nil {
		return nil, nil, err
	}
	v.mu.Lock()
	vc := v.volumes[volName]
	v.mu.Unlock()
	if vc == nil {
		return nil, nil, fmt.Errorf("venus: volume %q not mounted: %w", volName, ErrNotFound)
	}
	fid := vc.root
	walked := codafs.JoinPath(vc.info.Name)
	for _, c := range comps {
		dir, err := v.getObject(vc, fid, walked, true)
		if err != nil {
			return nil, nil, err
		}
		v.mu.Lock()
		isDir := dir.obj.Status.Type == codafs.Directory
		child, ok := dir.obj.Children[c]
		v.mu.Unlock()
		if !isDir {
			return nil, nil, fmt.Errorf("venus: %s: %w", walked, ErrNotDir)
		}
		if !ok {
			return nil, nil, fmt.Errorf("venus: %s/%s: %w", walked, c, ErrNotFound)
		}
		fid = child
		walked += "/" + c
	}
	f, err := v.getObject(vc, fid, walked, wantData)
	if err != nil {
		return nil, nil, err
	}
	return vc, f, nil
}

// refResolveParent is resolveParent over refResolve.
func (v *Venus) refResolveParent(path string) (*fso, error) {
	volName, comps, err := codafs.SplitPath(path)
	if err != nil {
		return nil, err
	}
	if len(comps) == 0 {
		return nil, fmt.Errorf("venus: %s names a volume root", path)
	}
	_, parent, err := v.refResolve(codafs.JoinPath(volName, comps[:len(comps)-1]...), true)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if parent.obj.Status.Type != codafs.Directory {
		return nil, ErrNotDir
	}
	return parent, nil
}

// runRefStep resolves what st's operation resolves by refResolve and
// returns what a lookup may move, under a header line.
func (v *Venus) runRefStep(st hitStep) string {
	path := spellings(st.rel)[0]
	// The results are not compared, only what the lookup moved.
	if st.op == "parent" {
		_, _ = v.refResolveParent(path)
	} else {
		_, _, _ = v.refResolve(path, st.op != "stat")
	}
	return fmt.Sprintf("ref %s %s\n%s", st.op, st.rel, v.snapshot())
}

// Every step runs twice, by one of four routes: route 0 spells the path
// cleanly, so the repeat is served by the memo whenever the cache can
// serve it; route 1 spells it cleanly with the memo emptied before each
// lookup, so each lookup walks; routes 2-4 spell it uncleanly; route 5
// resolves it by refResolve, and only its snapshots are compared (what
// an operation makes of the object it resolved is not refResolve's).
func TestLookupRoutesCountAlike(t *testing.T) {
	for _, state := range []State{Hoarding, WriteDisconnected, Emulating} {
		t.Run(state.String(), func(t *testing.T) {
			var logs [6][]string
			for route := range logs {
				sim := simtime.NewSim(simtime.Epoch1995)
				sim.Run(func() {
					v := newHitWorld(t, sim, state)
					logs[route] = append(logs[route], v.snapshot())
					for _, st := range hitScript {
						for range 2 {
							switch route {
							case 1:
								v.forgetPaths()
							case 5:
								logs[route] = append(logs[route], v.runRefStep(st))
								continue
							}
							logs[route] = append(logs[route], v.runHitStep(st, max(route-1, 0)))
						}
					}
					v.Close()
				})
			}
			for route := 1; route < len(logs); route++ {
				for i := range logs[0] {
					memo, other := logs[0][i], logs[route][i]
					if route == 5 {
						_, memo, _ = strings.Cut(memo, "\n")
						_, other, _ = strings.Cut(other, "\n")
					}
					if other != memo {
						t.Fatalf("route %d diverges from the memo route at step %d:\n--- memo\n%s--- route %d\n%s",
							route, i, logs[0][i], route, logs[route][i])
					}
				}
			}
		})
	}
}

// errClass names the kind of a lookup's error.
func errClass(err error) string {
	var miss *MissError
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrNotFound):
		return "not found"
	case errors.Is(err, ErrNotDir):
		return "not a directory"
	case errors.As(err, &miss):
		return "miss"
	}
	return "other"
}

// TestResolveCountsAsReferenceWalk resolves each path twice (the repeat
// memo-served where the first resolved) on one world and by refResolve
// on another, and demands the same snapshot and error class after each
// lookup. A lookup that resolved must have moved the snapshot, so the
// comparison cannot pass by neither route counting anything.
func TestResolveCountsAsReferenceWalk(t *testing.T) {
	deep := "/coda/v" + strings.Repeat("/a", 33)
	for _, state := range []State{Hoarding, WriteDisconnected, Emulating} {
		for _, tc := range []struct {
			path     string
			wantData bool
		}{
			{"/coda/v/a/b/clean.txt", true},
			{"/coda/v/a/b/dirty.txt", true},
			{"/coda/v/a/b/hoarded.txt", false},
			{"/coda/v/a/b/ph.txt", false},
			{"/coda/v/a/b", true},
			{"/coda/v", true},
			{"/coda/v/a/b/ph.txt", true},       // placeholder, data wanted
			{"/coda/v/a/b/suspect.txt", true},  // suspect leaf
			{"/coda/v/a/sdir/under.txt", true}, // suspect directory on the way
			{"/coda/v/a/cold/x.txt", true},     // uncached directory on the way
			{"/coda/v/a/b/nope.txt", true},     // no such name
			{"/coda/v/a/b/clean.txt/x", true},  // file on the way
			{"/coda/nosuchvol/a", true},        // unmounted volume
			{"/coda/v//a/b/clean.txt", true},
			{"/coda/v/a/./b/clean.txt", true},
			{"/coda/v/a/b/../b/clean.txt", true},
			{"/coda/v/a/b/clean.txt/", true},
			{"/coda/v/", true},
			{"/coda", true},
			{"/codav/a", true},
			{"/codav/a/b/clean.txt", false},
			{"/elsewhere/v/a", true},
			{"", true},
			{deep, true},
		} {
			var logs [2][]string
			for route := range logs {
				sim := simtime.NewSim(simtime.Epoch1995)
				sim.Run(func() {
					v := newHitWorld(t, sim, state)
					defer v.Close()
					lookup := v.resolve
					if route == 1 {
						lookup = v.refResolve
					}
					before := v.snapshot()
					for range 2 {
						_, _, err := lookup(tc.path, tc.wantData)
						after := v.snapshot()
						if err == nil && after == before {
							t.Errorf("%v %q route %d: resolved without recording a lookup", state, tc.path, route)
						}
						logs[route] = append(logs[route], errClass(err)+"\n"+after)
						before = after
					}
				})
			}
			for i := range logs[0] {
				if logs[0][i] != logs[1][i] {
					t.Errorf("%v %q, lookup %d:\n--- resolve\n%s--- refResolve\n%s",
						state, tc.path, i, logs[0][i], logs[1][i])
				}
			}
		}
	}
}

// TestResolveParentRefusesCountingNothing gives resolveParent paths that
// name no object in a volume: each must be refused and leave no trace.
func TestResolveParentRefusesCountingNothing(t *testing.T) {
	sim := simtime.NewSim(simtime.Epoch1995)
	sim.Run(func() {
		v := newHitWorld(t, sim, Hoarding)
		defer v.Close()
		for _, path := range []string{
			"/codav/x", "/coda-old/x", "/coda/v", "/coda/v/a/..", "/coda", "/", "relative", "",
		} {
			before := v.snapshot()
			if _, _, _, err := v.resolveParent(path); err == nil {
				t.Errorf("resolveParent(%q) resolved", path)
			}
			if after := v.snapshot(); after != before {
				t.Errorf("resolveParent(%q) left a trace:\n--- before\n%s--- after\n%s", path, before, after)
			}
		}
	})
}

// TestLookupRacesLoggedUpdate misses in a cached directory while logged
// creates enter names into it; under -race it fails if a lookup reads a
// directory's entries without v.mu.
func TestLookupRacesLoggedUpdate(t *testing.T) {
	sim := simtime.NewSim(simtime.Epoch1995)
	sim.Run(func() {
		v := newHitWorld(t, sim, WriteDisconnected)
		defer v.Close()
		const rounds = 50
		done := simtime.NewQueue[error](sim)
		sim.Go(func() {
			var err error
			for i := 0; i < rounds && err == nil; i++ {
				err = v.WriteFile(fmt.Sprintf("/coda/v/a/b/new%d", i), []byte("new"))
			}
			done.Put(err)
		})
		sim.Go(func() {
			var err error
			for i := 0; i < rounds && err == nil; i++ {
				if _, _, err = v.resolve("/coda/v/a/b/nope.txt", false); errors.Is(err, ErrNotFound) {
					err = nil
				}
			}
			done.Put(err)
		})
		for range 2 {
			if err, _ := done.Get(); err != nil {
				t.Error(err)
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
