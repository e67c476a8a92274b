package venus

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/codafs"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/simtime"
)

// The walk's memo must be invisible: after any change to the name space, a
// lookup leaves the result, counters and recency stamps that a Venus with
// a cold memo leaves. Each case below runs on two identical worlds, one
// whose client keeps its memo and one whose client's memo is emptied
// before every operation, and the two logs must agree step for step.

// forgetPaths empties the walk's memo, so the next lookup walks.
func (v *Venus) forgetPaths() {
	v.mu.Lock()
	clear(v.memo)
	v.mu.Unlock()
}

// memoRun is one world of a case: the client c under test, a second
// client other that changes the server under it, and the log of what
// each step left in c.
type memoRun struct {
	t        *testing.T
	sim      *simtime.Sim
	c, other *Venus
	cold     bool
	log      []string
}

// step runs op on c, its memo emptied first in the cold world, and logs
// op's error and everything a lookup may move. It checks the memo's
// bound: while its entries are current it holds no more of them than the
// cache holds objects (stale ones are dropped by the next lookup, before
// it reads the memo).
func (r *memoRun) step(name string, op func() error) {
	r.t.Helper()
	if r.cold {
		r.c.forgetPaths()
	}
	err := op()
	r.log = append(r.log, fmt.Sprintf("%s: err=%v\n%s", name, err, r.c.snapshot()))
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	if n, objs := len(r.c.memo), r.c.cache.count(); r.c.memoGen == r.c.cache.gen && n > objs {
		r.t.Errorf("%s: the memo holds %d current paths, the cache %d objects", name, n, objs)
	}
}

// read is a step that reads /coda/v/rel and logs what it found.
func (r *memoRun) read(rel string) {
	r.t.Helper()
	var data []byte
	r.step("read "+rel, func() (err error) {
		data, err = r.c.ReadFile("/coda/v/" + rel)
		return err
	})
	r.log[len(r.log)-1] += fmt.Sprintf("contents %q\n", data)
}

// change is a step that must succeed.
func (r *memoRun) change(name string, op func() error) {
	r.t.Helper()
	r.step(name, func() error {
		if err := op(); err != nil {
			r.t.Fatalf("%s: %v", name, err)
		}
		return nil
	})
}

// byOther has the second client make a change, and lets its callback
// breaks reach c.
func (r *memoRun) byOther(name string, op func(o *Venus) error) {
	r.t.Helper()
	r.change(name, func() error { return op(r.other) })
	r.sim.Sleep(time.Second)
}

// fidOf returns the FID c caches at /coda/v/rel (zero if none).
func (r *memoRun) fidOf(rel string) codafs.FID {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	f := r.c.cache.get(r.c.volumes["v"].root)
	for _, name := range strings.Split(rel, "/") {
		if f = r.c.cache.get(f.obj.Children[name]); f == nil {
			return codafs.FID{}
		}
	}
	return f.obj.Status.FID
}

var memoCases = []struct {
	name       string
	cacheBytes int64
	run        func(r *memoRun)
}{
	{"rename file", 0, func(r *memoRun) {
		r.change("rename", func() error { return r.c.Rename("/coda/v/d/f", "/coda/v/d/h") })
		r.read("d/f")
		r.read("d/h")
	}},
	{"rename directory", 0, func(r *memoRun) {
		r.change("rename", func() error { return r.c.Rename("/coda/v/d", "/coda/v/d2") })
		r.read("d/f")
		r.read("d2/f")
	}},
	{"remove", 0, func(r *memoRun) {
		r.change("remove", func() error { return r.c.Remove("/coda/v/d/f") })
		r.read("d/f")
	}},
	{"rmdir mkdir create", 0, func(r *memoRun) {
		r.change("remove f", func() error { return r.c.Remove("/coda/v/d/f") })
		r.change("remove g", func() error { return r.c.Remove("/coda/v/d/g") })
		r.change("rmdir", func() error { return r.c.Rmdir("/coda/v/d") })
		r.read("d/f")
		r.change("mkdir", func() error { return r.c.Mkdir("/coda/v/d") })
		r.read("d/f")
		r.change("create", func() error { return r.c.WriteFile("/coda/v/d/f", []byte("new f")) })
		r.read("d/f")
	}},
	{"link", 0, func(r *memoRun) {
		r.change("link", func() error { return r.c.Link("/coda/v/d/f", "/coda/v/e/l") })
		r.read("d/f")
		r.read("e/l")
		r.change("remove", func() error { return r.c.Remove("/coda/v/d/f") })
		r.read("d/f")
		r.read("e/l")
	}},
	// Another client's rename breaks d's and f's callbacks; the next
	// lookup through d refetches it, and its install replaces d's entries
	// while f, refetched too, is a usable copy again.
	{"callback break and refetch", 0, func(r *memoRun) {
		r.byOther("rename by other", func(o *Venus) error { return o.Rename("/coda/v/d/f", "/coda/v/d/f.old") })
		r.read("d/f.old")
		r.read("d/f")
	}},
	// The same rename while c is disconnected: at reconnection the
	// volume stamp fails, and the hoard walk's validation finds d changed
	// and demotes it to a placeholder.
	{"hoard validation", 0, func(r *memoRun) {
		r.change("disconnect", func() error { r.c.Disconnect(); return nil })
		r.byOther("rename by other", func(o *Venus) error { return o.Rename("/coda/v/d/f", "/coda/v/d/f.old") })
		r.change("reconnect", func() error { r.c.Connect(0); return nil })
		r.change("hoard walk", r.c.HoardWalk)
		r.read("d/f")
		r.read("d/f.old")
	}},
	// Once big is listed, d/f is walked again and reading the big files
	// evicts d and f, and nothing else moves the generation.
	{"eviction", 9000, func(r *memoRun) {
		r.step("list big", func() error { _, err := r.c.ReadDir("/coda/v/big"); return err })
		r.read("d/f")
		f := r.fidOf("d/f")
		for _, rel := range []string{"big/1", "big/2", "big/3"} {
			r.read(rel)
		}
		if r.fidOf("d/f") == f {
			r.t.Fatal("setup: d/f was not evicted")
		}
		r.read("d/f")
	}},
}

// runMemoCase builds a world, has c read d/f twice (the repeat served by
// the memo unless cold), runs the case and returns the log.
func runMemoCase(t *testing.T, cacheBytes int64, logged, cold bool, run func(*memoRun)) []string {
	t.Helper()
	sim := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(sim, 11)
	net.SetDefaults(netsim.Ethernet.Params())
	srv := server.New(sim, net.Host("server"))
	if _, err := srv.CreateVolume("v"); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"big/1", "big/2", "big/3", "d/f", "d/g", "e/x"} {
		data := []byte(rel)
		if strings.HasPrefix(rel, "big/") {
			data = bytes.Repeat(data, 800)
		}
		if _, err := srv.WriteFile("v", rel, data); err != nil {
			t.Fatal(err)
		}
	}
	r := &memoRun{t: t, sim: sim, cold: cold}
	sim.Run(func() {
		r.c = New(sim, net.Host("c1"), Config{Server: "server", ClientID: 1, CacheBytes: cacheBytes,
			AgingWindow: time.Hour, PinWriteDisconnected: true, Obs: obs.NewRegistry(sim)})
		defer r.c.Close()
		r.other = New(sim, net.Host("c2"), Config{Server: "server", ClientID: 2})
		defer r.other.Close()
		for _, v := range []*Venus{r.c, r.other} {
			if err := v.Mount("v"); err != nil {
				t.Fatal(err)
			}
		}
		if logged {
			r.c.WriteDisconnect()
		}
		r.read("d/f")
		r.read("d/f")
		r.c.mu.Lock()
		_, memoized := r.c.memo["/coda/v/d/f"]
		r.c.mu.Unlock()
		if !memoized {
			t.Fatal("setup: /coda/v/d/f is not memoized")
		}
		run(r)
	})
	return r.log
}

// TestMemoFollowsNamespaceChanges memoizes /coda/v/d/f, then changes the
// name space every way the cache sees — each of c's own changes written
// through and logged — and compares each lookup after it with the same
// lookup by a client whose memo is cold.
func TestMemoFollowsNamespaceChanges(t *testing.T) {
	for _, tc := range memoCases {
		for _, logged := range []bool{false, true} {
			mode := "written through"
			if logged {
				mode = "logged"
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				warm := runMemoCase(t, tc.cacheBytes, logged, false, tc.run)
				cold := runMemoCase(t, tc.cacheBytes, logged, true, tc.run)
				if len(warm) != len(cold) {
					t.Fatalf("%d steps with the memo kept, %d with it cold", len(warm), len(cold))
				}
				for i := range warm {
					if warm[i] != cold[i] {
						t.Fatalf("step %d diverges:\n--- memo kept\n%s--- memo cold\n%s", i, warm[i], cold[i])
					}
				}
			})
		}
	}
}

// TestNoMemoAcrossMovedGeneration renames a file while a read of it waits
// for its contents with v.mu dropped, and has a second lookup read the
// memo after the rename. The read's chain was walked before the rename,
// so it must not be memoized: the old name must be gone.
func TestNoMemoAcrossMovedGeneration(t *testing.T) {
	sim := simtime.NewSim(simtime.Epoch1995)
	sim.Run(func() {
		v := newHitWorld(t, sim, WriteDisconnected)
		defer v.Close()
		done := simtime.NewQueue[error](sim)
		sim.Go(func() {
			_, err := v.ReadFile("/coda/v/a/b/ph.txt") // a placeholder: its contents are fetched
			done.Put(err)
		})
		sim.Go(func() {
			sim.Sleep(time.Microsecond)
			err := v.Rename("/coda/v/a/b/ph.txt", "/coda/v/a/b/ph2.txt")
			if err == nil {
				_, err = v.Stat("/coda/v") // reads the memo at the new generation
			}
			done.Put(err)
		})
		for range 2 {
			if err, _ := done.Get(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := v.Stat("/coda/v/a/b/ph.txt"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Stat of the renamed name = %v, want ErrNotFound", err)
		}
	})
}
