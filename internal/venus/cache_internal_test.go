package venus

import (
	"bytes"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/netsim"
	"repro/internal/rpc2"
	"repro/internal/server"
	"repro/internal/simtime"
)

func mkObj(vnode uint64, size int) *codafs.Object {
	return &codafs.Object{
		Status: codafs.Status{
			FID:    codafs.FID{Volume: 1, Vnode: vnode, Unique: vnode},
			Type:   codafs.File,
			Length: int64(size),
		},
		Data: make([]byte, size),
	}
}

func TestCacheAccounting(t *testing.T) {
	c := newCache(1 << 20)
	f := c.install(mkObj(2, 1000), false)
	if c.bytesUsed() != 1000 {
		t.Fatalf("used = %d, want 1000", c.bytesUsed())
	}
	// In-place growth with recharge.
	f.obj.Data = make([]byte, 3000)
	c.recharge(f)
	if c.bytesUsed() != 3000 {
		t.Fatalf("used after recharge = %d, want 3000", c.bytesUsed())
	}
	// Replacement install resets the charge.
	c.install(mkObj(2, 500), false)
	if c.bytesUsed() != 500 {
		t.Fatalf("used after reinstall = %d, want 500", c.bytesUsed())
	}
	c.remove(codafs.FID{Volume: 1, Vnode: 2, Unique: 2})
	if c.bytesUsed() != 0 || c.count() != 0 {
		t.Fatalf("used=%d count=%d after remove", c.bytesUsed(), c.count())
	}
}

func TestCacheEvictionOrder(t *testing.T) {
	c := newCache(10_000)
	low := c.install(mkObj(2, 4000), false)
	low.hoardPri = 0
	high := c.install(mkObj(3, 4000), false)
	high.hoardPri = 900
	//

	// Touch low afterwards: recency must NOT protect it against the
	// hoard priority ordering.
	c.touch(low)
	if !c.evictFor(4000) {
		t.Fatal("evictFor failed")
	}
	if c.get(low.obj.Status.FID) != nil {
		t.Error("low-priority object survived over high-priority")
	}
	if c.get(high.obj.Status.FID) == nil {
		t.Error("high-priority object evicted")
	}
}

func TestCacheEvictionLRUWithinPriority(t *testing.T) {
	c := newCache(10_000)
	a := c.install(mkObj(2, 4000), false)
	b := c.install(mkObj(3, 4000), false)
	c.touch(a) // a now more recent than b
	if !c.evictFor(4000) {
		t.Fatal("evictFor failed")
	}
	if c.get(b.obj.Status.FID) != nil {
		t.Error("LRU victim b survived")
	}
	if c.get(a.obj.Status.FID) == nil {
		t.Error("recently used a evicted")
	}
}

func TestCacheNeverEvictsDirty(t *testing.T) {
	c := newCache(5_000)
	d := c.install(mkObj(2, 4000), true) // dirty
	if c.evictFor(4000) {
		t.Error("evictFor claimed success with only a dirty object to evict")
	}
	if c.get(d.obj.Status.FID) == nil {
		t.Fatal("dirty object evicted — pending updates would be lost")
	}
}

func TestCacheNeverEvictsRoots(t *testing.T) {
	c := newCache(5_000)
	root := &codafs.Object{
		Status:   codafs.Status{FID: codafs.FID{Volume: 1, Vnode: 1, Unique: 1}, Type: codafs.Directory},
		Children: map[string]codafs.FID{},
	}
	for i := 0; i < 200; i++ {
		root.Children[string(rune('a'+i%26))+string(rune('0'+i%10))] = codafs.FID{Volume: 1, Vnode: uint64(i + 10)}
	}
	c.install(root, false)
	c.evictFor(100_000) // impossible request
	if c.get(root.Status.FID) == nil {
		t.Error("volume root evicted")
	}
}

// Property: used bytes always equals the sum of residents' charges, and
// each charge its object's dataBytes, across arbitrary
// install/remove/recharge sequences; objects demoted to placeholders in
// place (as revalidation does) keep their charge until the next recharge
// or install, and removing every resident returns used bytes to zero.
func TestCacheAccountingProperty(t *testing.T) {
	type op struct {
		Kind  uint8
		Vnode uint8
		Size  uint16
	}
	f := func(ops []op) bool {
		c := newCache(1 << 30)
		demoted := map[codafs.FID]bool{}
		for _, o := range ops {
			vn := uint64(o.Vnode%16) + 2
			fid := codafs.FID{Volume: 1, Vnode: vn, Unique: vn}
			switch o.Kind % 4 {
			case 0:
				c.install(mkObj(vn, int(o.Size)), o.Kind%2 == 0)
				delete(demoted, fid)
			case 1:
				c.remove(fid)
				delete(demoted, fid)
			case 2:
				if f := c.get(fid); f != nil {
					f.obj.Data = make([]byte, o.Size)
					c.recharge(f)
					delete(demoted, fid)
				}
			case 3:
				if f := c.get(fid); f != nil {
					f.placeholder = true
					demoted[fid] = true
				}
			}
		}
		var charged int64
		for _, f := range c.all() {
			charged += f.charge
			if !demoted[f.obj.Status.FID] && f.charge != f.dataBytes() {
				return false
			}
		}
		if c.bytesUsed() != charged {
			return false
		}
		for _, f := range c.all() {
			c.remove(f.obj.Status.FID)
		}
		return c.bytesUsed() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPatienceThresholdShape(t *testing.T) {
	p := DefaultPatience()
	// Monotone in priority; floor at α+β for priority 0.
	prev := p.Threshold(0)
	if prev.Seconds() < p.Alpha {
		t.Errorf("τ(0) = %v below α", prev)
	}
	for pri := 100; pri <= 1000; pri += 100 {
		cur := p.Threshold(pri)
		if cur <= prev {
			t.Errorf("τ not increasing at %d: %v <= %v", pri, cur, prev)
		}
		prev = cur
	}
	// The paper's worked example: 60 s at 64 Kb/s ≈ 480 KB.
	if got := (PatienceParams{Alpha: 0, Beta: 60, Gamma: 0}).MaxFileSize(0, 64_000); got != 480_000 {
		t.Errorf("60s at 64Kb/s = %d bytes, want 480000", got)
	}
}

func TestCacheStatsFigure6Fields(t *testing.T) {
	c := newCache(50 << 20)
	c.install(mkObj(2, 8244<<10/8), false) // arbitrary occupancy
	v := &Venus{cfg: Config{CacheBytes: 50 << 20}, cache: c}
	cs := v.CacheStats()
	if cs.AllocatedBytes != 50<<20 {
		t.Errorf("Allocated = %d", cs.AllocatedBytes)
	}
	if cs.OccupiedBytes != c.bytesUsed() || cs.Objects != 1 {
		t.Errorf("Occupied = %d Objects = %d", cs.OccupiedBytes, cs.Objects)
	}
	if cs.Available() != cs.AllocatedBytes-cs.OccupiedBytes {
		t.Error("Available inconsistent")
	}
}

// checkListings fails the test unless every kept listing in v's cache
// equals its directory's sorted entries, and ReadDir of each of dirs
// equals the entries of the directory it resolves to.
func checkListings(t *testing.T, v *Venus, step string, dirs ...string) {
	t.Helper()
	entries := func(f *fso) []string {
		names := make([]string, 0, len(f.obj.Children))
		for name := range f.obj.Children {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}
	v.mu.Lock()
	for _, f := range v.cache.all() {
		if f.names != nil && !slices.Equal(f.names, entries(f)) {
			t.Errorf("%s: %v keeps listing %q, entries are %q", step, f.obj.Status.FID, f.names, entries(f))
		}
	}
	v.mu.Unlock()
	for _, dir := range dirs {
		got, err := v.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: ReadDir(%s): %v", step, dir, err)
		}
		_, f, err := v.resolve(dir, true)
		if err != nil {
			t.Fatalf("%s: resolve(%s): %v", step, dir, err)
		}
		v.mu.Lock()
		want := entries(f)
		v.mu.Unlock()
		if !slices.Equal(got, want) {
			t.Errorf("%s: ReadDir(%s) = %q, entries are %q", step, dir, got, want)
		}
	}
}

// TestListingFollowsEntryChanges drives every site that changes a cached
// directory's entries — each operation written through and logged, a
// refetch, validation demoting a directory, a restored CML applied to a
// cached directory and overlaid on a fetched one — with every directory
// listed before each step, so a kept listing that is not dropped shows.
func TestListingFollowsEntryChanges(t *testing.T) {
	sim := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(sim, 11)
	net.SetDefaults(netsim.Ethernet.Params())
	srv := server.New(sim, net.Host("server"))
	if _, err := srv.CreateVolume("v"); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"d/a", "d/b", "e/c"} {
		if _, err := srv.WriteFile("v", rel, []byte(rel)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Server: "server", ClientID: 1, AgingWindow: time.Hour, PinWriteDisconnected: true}
	dirs := []string{"/coda/v", "/coda/v/d", "/coda/v/e"}
	sim.Run(func() {
		v := New(sim, net.Host("c1"), cfg)
		if err := v.Mount("v"); err != nil {
			t.Fatal(err)
		}
		checkListings(t, v, "mount", dirs...)

		for _, mode := range []string{"connected", "logged"} {
			if mode == "logged" {
				v.WriteDisconnect()
			}
			for _, op := range []struct {
				name string
				do   func() error
			}{
				{"create", func() error { return v.WriteFile("/coda/v/d/new-"+mode, nil) }},
				{"mkdir", func() error { return v.Mkdir("/coda/v/d/sub-" + mode) }},
				{"symlink", func() error { return v.Symlink("a", "/coda/v/d/ln-"+mode) }},
				{"link", func() error { return v.Link("/coda/v/d/a", "/coda/v/d/hard-"+mode) }},
				{"remove", func() error { return v.Remove("/coda/v/d/new-" + mode) }},
				{"rmdir", func() error { return v.Rmdir("/coda/v/d/sub-" + mode) }},
				{"rename within", func() error { return v.Rename("/coda/v/d/ln-"+mode, "/coda/v/d/ln2-"+mode) }},
				{"rename across", func() error { return v.Rename("/coda/v/d/ln2-"+mode, "/coda/v/e/ln3-"+mode) }},
			} {
				if err := op.do(); err != nil {
					t.Fatalf("%s %s: %v", mode, op.name, err)
				}
				checkListings(t, v, mode+" "+op.name, dirs...)
			}
			if mode != "connected" {
				continue
			}
			// Another writer's create breaks d's callback; the next
			// listing revalidates d and refetches it through install.
			if _, err := srv.WriteFile("v", "d/theirs", nil); err != nil {
				t.Fatal(err)
			}
			sim.Sleep(time.Second)
			checkListings(t, v, "refetch", dirs...)
			// The same for e, but a hoard walk's validation finds it
			// changed first and demotes it to a placeholder.
			if _, err := srv.WriteFile("v", "e/theirs", nil); err != nil {
				t.Fatal(err)
			}
			sim.Sleep(time.Second)
			if err := v.HoardWalk(); err != nil {
				t.Fatal(err)
			}
			checkListings(t, v, "demote", dirs...)
		}

		// A restart restores the logged records: d is cached and listed
		// when they are applied, e is fetched afterwards and overlaid.
		var img bytes.Buffer
		if err := v.SaveState(&img); err != nil {
			t.Fatal(err)
		}
		v.Close()
		v2 := New(sim, net.Host("c1b"), cfg)
		defer v2.Close()
		if err := v2.Mount("v"); err != nil {
			t.Fatal(err)
		}
		checkListings(t, v2, "restart", "/coda/v", "/coda/v/d")
		if err := v2.LoadState(&img); err != nil {
			t.Fatal(err)
		}
		checkListings(t, v2, "restore", dirs...)
		names, _ := v2.ReadDir("/coda/v/e")
		if !slices.Contains(names, "ln3-logged") {
			t.Errorf("e after restore = %q; the logged rename is not overlaid", names)
		}
	})
}

// TestUpdateOfEvictedTarget evicts an update's target between the
// operation's resolve and the update's relock, as a fetch making room
// may, for each route. A store still shows its contents; a setattr
// leaves the uncached object to the next fetch, so a file reads back
// whole and a directory lists and takes new entries.
func TestUpdateOfEvictedTarget(t *testing.T) {
	sim := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(sim, 11)
	net.SetDefaults(netsim.Ethernet.Params())
	srv := server.New(sim, net.Host("server"))
	if _, err := srv.CreateVolume("v"); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"f", "g", "d/x"} {
		if _, err := srv.WriteFile("v", rel, []byte("server "+rel)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Server: "server", ClientID: 1, AgingWindow: time.Hour, PinWriteDisconnected: true}
	sim.Run(func() {
		v := New(sim, net.Host("c1"), cfg)
		defer v.Close()
		if err := v.Mount("v"); err != nil {
			t.Fatal(err)
		}
		// evicted runs the update rec(f) builds for path's object after
		// evicting that object.
		evicted := func(path string, rec func(f *fso) cml.Record) {
			t.Helper()
			vc, f, err := v.resolve(path, false)
			if err != nil {
				t.Fatal(err)
			}
			v.mu.Lock()
			r, state := rec(f), v.state
			v.cache.remove(f.obj.Status.FID)
			v.mu.Unlock()
			if err := v.update(vc, state, &r, rpc2.CallOpts{}); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		setAttr := func(f *fso) cml.Record {
			return cml.Record{Kind: cml.SetAttr, FID: f.obj.Status.FID, Mode: 0600,
				ModTime: v.clock.Now(), PrevVersion: f.obj.Status.Version, Owner: v.owner}
		}
		for _, mode := range []string{"connected", "logged"} {
			if mode == "logged" {
				v.WriteDisconnect()
			}
			data := []byte(mode + " contents")
			evicted("/coda/v/g", func(f *fso) cml.Record {
				return cml.Record{Kind: cml.Store, FID: f.obj.Status.FID, Data: data,
					Length: int64(len(data)), ModTime: v.clock.Now(),
					PrevVersion: f.obj.Status.Version, Owner: v.owner}
			})
			if got, err := v.ReadFile("/coda/v/g"); err != nil || !bytes.Equal(got, data) {
				t.Errorf("%s store: ReadFile = %q, %v; want %q", mode, got, err, data)
			}

			evicted("/coda/v/f", setAttr)
			if got, err := v.ReadFile("/coda/v/f"); err != nil || string(got) != "server f" {
				t.Errorf("%s setattr: ReadFile(f) = %q, %v", mode, got, err)
			}

			evicted("/coda/v/d", setAttr)
			if st, err := v.Stat("/coda/v/d"); err != nil || st.Type != codafs.Directory {
				t.Errorf("%s setattr: Stat(d) = %+v, %v", mode, st, err)
			}
			if err := v.WriteFile("/coda/v/d/new-"+mode, nil); err != nil {
				t.Fatalf("%s: create in d: %v", mode, err)
			}
			names, err := v.ReadDir("/coda/v/d")
			if err != nil || !slices.Contains(names, "x") || !slices.Contains(names, "new-"+mode) {
				t.Errorf("%s setattr: ReadDir(d) = %q, %v", mode, names, err)
			}
			if mode == "connected" {
				if st, _ := v.Stat("/coda/v/f"); st.Mode != 0600 {
					t.Errorf("connected setattr: Stat(f).Mode = %o, want the server's 600", st.Mode)
				}
			}
		}
	})
}
