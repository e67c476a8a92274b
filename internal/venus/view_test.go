package venus

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/simtime"
)

// viewWorld is one row's deployment for TestViewFileIsSnapshot: a server
// holding /coda/v/{f,g,h}, and the views taken so far, each with the
// bytes it showed when it was taken.
type viewWorld struct {
	t       *testing.T
	sim     *simtime.Sim
	net     *netsim.Network
	srv     *server.Server
	cfg     Config
	clients []*Venus
	views   [][2][]byte // {view, its contents when taken}
}

// client starts a Venus on host with the row's config and mounts v.
func (w *viewWorld) client(host string) *Venus {
	v := New(w.sim, w.net.Host(host), w.cfg)
	w.clients = append(w.clients, v)
	if err := v.Mount("v"); err != nil {
		w.t.Fatal(err)
	}
	return v
}

// take views /coda/v/f through v and keeps the view for the final check.
// A view's capacity ends where its contents do, so an append to it
// reallocates instead of writing into memory behind the cache's bytes.
func (w *viewWorld) take(v *Venus) {
	w.t.Helper()
	view, err := v.ViewFile("/coda/v/f")
	if err != nil {
		w.t.Fatal(err)
	}
	if cap(view) != len(view) {
		w.t.Errorf("view: len %d cap %d, want cap == len", len(view), cap(view))
	}
	w.views = append(w.views, [2][]byte{view, bytes.Clone(view)})
}

func (w *viewWorld) ok(err error) {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
}

// TestViewFileIsSnapshot takes a view of a file, then replaces the
// file's contents each way the cache can. Every view taken must still
// show the bytes it showed, and a fresh view the new contents: Venus
// never writes into a contents slice, only replaces it (codafs.Object),
// which is what lets ViewFile hand out the cache's own bytes.
func TestViewFileIsSnapshot(t *testing.T) {
	orig := bytes.Repeat([]byte("original contents "), 200) // 3.6 KB: deltas apply
	next := bytes.Clone(orig)
	copy(next[100:], "EDITED")
	const f = "/coda/v/f"

	for _, row := range []struct {
		name string
		cfg  Config
		// change replaces f's contents; it returns the Venus to view f
		// through afterwards and what it must show (nil: f is gone).
		change func(w *viewWorld, v *Venus) (*Venus, []byte)
	}{
		{"written-through store", Config{}, func(w *viewWorld, v *Venus) (*Venus, []byte) {
			w.ok(v.WriteFile(f, next))
			if n := v.CMLRecords(); n != 0 {
				w.t.Fatalf("store logged %d records, want it written through", n)
			}
			return v, next
		}},
		{"logged store", Config{}, func(w *viewWorld, v *Venus) (*Venus, []byte) {
			v.WriteDisconnect()
			w.ok(v.WriteFile(f, next))
			if n := v.CMLRecords(); n != 1 {
				w.t.Fatalf("CML holds %d records, want the store", n)
			}
			return v, next
		}},
		{"logged store keeping a delta base, then reintegrated as a delta", Config{EnableDeltas: true}, func(w *viewWorld, v *Venus) (*Venus, []byte) {
			v.WriteDisconnect()
			w.ok(v.WriteFile(f, next))
			w.take(v)
			w.ok(v.ForceReintegrate())
			if st := v.Stats(); st.DeltaStores != 1 {
				w.t.Fatalf("DeltaStores = %d, want the store shipped against its base", st.DeltaStores)
			}
			return v, next
		}},
		{"setattr", Config{}, func(w *viewWorld, v *Venus) (*Venus, []byte) {
			w.ok(v.SetAttr(f, 0600))
			return v, orig
		}},
		{"remove", Config{}, func(w *viewWorld, v *Venus) (*Venus, []byte) {
			w.ok(v.Remove(f))
			return v, nil
		}},
		// Room for two of the three files: viewing g and h evicts f.
		{"eviction under cache pressure, then refetch", Config{CacheBytes: 2*int64(len(orig)) + 1024}, func(w *viewWorld, v *Venus) (*Venus, []byte) {
			_, cached, err := v.resolve(f, true)
			w.ok(err)
			fid := cached.obj.Status.FID
			for _, other := range []string{"/coda/v/g", "/coda/v/h"} {
				if _, err := v.ViewFile(other); err != nil {
					w.t.Fatal(err)
				}
			}
			v.mu.Lock()
			evicted := v.cache.get(fid) == nil
			v.mu.Unlock()
			if !evicted {
				w.t.Fatal("f was not evicted")
			}
			if _, err := w.srv.WriteFile("v", "f", next); err != nil {
				w.t.Fatal(err)
			}
			return v, next
		}},
		{"callback break, then refetch", Config{}, func(w *viewWorld, v *Venus) (*Venus, []byte) {
			if _, err := w.srv.WriteFile("v", "f", next); err != nil {
				w.t.Fatal(err)
			}
			w.sim.Sleep(time.Second)
			return v, next
		}},
		{"logged store, then reintegrated", Config{}, func(w *viewWorld, v *Venus) (*Venus, []byte) {
			v.WriteDisconnect()
			w.ok(v.WriteFile(f, next))
			w.take(v)
			w.ok(v.ForceReintegrate())
			if got, err := w.srv.ReadFile("v", "f"); err != nil || !bytes.Equal(got, next) {
				w.t.Fatalf("server holds %d bytes, %v after reintegration", len(got), err)
			}
			return v, next
		}},
		{"LoadState restore", Config{}, func(w *viewWorld, v *Venus) (*Venus, []byte) {
			v.WriteDisconnect()
			w.ok(v.WriteFile(f, next))
			var img bytes.Buffer
			w.ok(v.SaveState(&img))
			v.Close()
			v2 := w.client("c1b")
			w.take(v2) // the server's contents, cached before the restore
			w.ok(v2.LoadState(&img))
			return v2, next
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			sim := simtime.NewSim(simtime.Epoch1995)
			net := netsim.New(sim, 11)
			net.SetDefaults(netsim.Ethernet.Params())
			w := &viewWorld{t: t, sim: sim, net: net, srv: server.New(sim, net.Host("server")), cfg: row.cfg}
			w.cfg.Server, w.cfg.ClientID = "server", 1
			w.cfg.AgingWindow, w.cfg.PinWriteDisconnected = time.Hour, true
			if _, err := w.srv.CreateVolume("v"); err != nil {
				t.Fatal(err)
			}
			for _, rel := range []string{"f", "g", "h"} {
				if _, err := w.srv.WriteFile("v", rel, orig); err != nil {
					t.Fatal(err)
				}
			}
			sim.Run(func() {
				v := w.client("c1")
				w.take(v)
				after, want := row.change(w, v)
				// The fresh view first: a refetch happens inside it.
				got, err := after.ViewFile(f)
				switch {
				case want == nil && err == nil:
					t.Errorf("fresh view = %d bytes, want an error", len(got))
				case want != nil && (err != nil || !bytes.Equal(got, want)):
					t.Errorf("fresh view = %d bytes, %v; want the new contents", len(got), err)
				}
				for i, kept := range w.views {
					if !bytes.Equal(kept[0], kept[1]) {
						t.Errorf("view %d changed under its holder", i)
					}
				}
				for _, c := range w.clients {
					c.Close()
				}
			})
		})
	}
}
