package venus_test

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/codafs"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/venus"
)

type world struct {
	t   *testing.T
	sim *simtime.Sim
	net *netsim.Network
	srv *server.Server
}

func newWorld(t *testing.T) *world {
	t.Helper()
	s := simtime.NewSim(simtime.Epoch1995)
	n := netsim.New(s, 11)
	n.SetDefaults(netsim.Ethernet.Params())
	return &world{t: t, sim: s, net: n, srv: server.New(s, n.Host("server"))}
}

var clientSeq uint32

func (w *world) venus(name string, cfg venus.Config) *venus.Venus {
	clientSeq++
	cfg.Server = "server"
	if cfg.ClientID == 0 {
		cfg.ClientID = clientSeq
	}
	if cfg.TrickleInterval == 0 {
		cfg.TrickleInterval = time.Second
	}
	return venus.New(w.sim, w.net.Host(name), cfg)
}

// setLink reconfigures the client↔server link to a profile.
func (w *world) setLink(client string, p netsim.Profile) {
	w.net.SetLink(client, "server", p.Params())
}

// Profile shorthands for tests in this package.
func wlModem() netsim.Profile    { return netsim.Modem }
func wlEthernet() netsim.Profile { return netsim.Ethernet }

func (w *world) seed(vol string, files map[string]string) {
	w.t.Helper()
	if _, err := w.srv.CreateVolume(vol); err != nil {
		w.t.Fatal(err)
	}
	// Sorted order: FIDs and version stamps are assigned in creation
	// order, so deterministic seeding gives byte-identical server state
	// across runs (the crash-matrix tests compare snapshots by bytes).
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := w.srv.WriteFile(vol, path, []byte(files[path])); err != nil {
			w.t.Fatal(err)
		}
	}
}

func mustMount(t *testing.T, v *venus.Venus, vol string) {
	t.Helper()
	if err := v.Mount(vol); err != nil {
		t.Fatal(err)
	}
}

func TestReadThroughCache(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"papers/s15.bib": "bibliography"})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "usr")
		data, err := v.ReadFile("/coda/usr/papers/s15.bib")
		if err != nil || string(data) != "bibliography" {
			t.Fatalf("ReadFile = %q, %v", data, err)
		}
		// Second read must come from cache: sever the network.
		w.net.SetUp("c1", "server", false)
		data, err = v.ReadFile("/coda/usr/papers/s15.bib")
		if err != nil || string(data) != "bibliography" {
			t.Errorf("cached ReadFile = %q, %v", data, err)
		}
	})
}

func TestWriteThroughWhileHoarding(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "usr")
		if err := v.WriteFile("/coda/usr/draft.txt", []byte("v1")); err != nil {
			t.Fatal(err)
		}
		// Write-through: visible on the server immediately, no CML.
		if data, err := w.srv.ReadFile("usr", "draft.txt"); err != nil || string(data) != "v1" {
			t.Fatalf("server copy = %q, %v", data, err)
		}
		if v.CMLRecords() != 0 {
			t.Errorf("CML has %d records in hoarding state", v.CMLRecords())
		}
		if v.State() != venus.Hoarding {
			t.Errorf("state = %v", v.State())
		}
	})
}

func TestConnectedNamespaceOps(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"a/file": "x"})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "usr")
		if err := v.Mkdir("/coda/usr/b"); err != nil {
			t.Fatal(err)
		}
		if err := v.Rename("/coda/usr/a/file", "/coda/usr/b/file"); err != nil {
			t.Fatal(err)
		}
		if _, err := w.srv.ReadFile("usr", "b/file"); err != nil {
			t.Errorf("rename not on server: %v", err)
		}
		if err := v.Symlink("b/file", "/coda/usr/lnk"); err != nil {
			t.Fatal(err)
		}
		if target, err := v.ReadLink("/coda/usr/lnk"); err != nil || target != "b/file" {
			t.Errorf("ReadLink = %q, %v", target, err)
		}
		if err := v.Link("/coda/usr/b/file", "/coda/usr/hard"); err != nil {
			t.Fatal(err)
		}
		if err := v.Remove("/coda/usr/b/file"); err != nil {
			t.Fatal(err)
		}
		if _, err := w.srv.ReadFile("usr", "hard"); err != nil {
			t.Errorf("hard link lost: %v", err)
		}
		if err := v.SetAttr("/coda/usr/hard", 0600); err != nil {
			t.Fatal(err)
		}
		if st, _ := w.srv.Resolve("usr", "hard"); st.Mode != 0600 {
			t.Errorf("mode = %o", st.Mode)
		}
		names, err := v.ReadDir("/coda/usr")
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 4 { // a, b, lnk, hard
			t.Errorf("ReadDir = %v", names)
		}
	})
}

func TestDisconnectedOperationAndReintegration(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"doc": "old", "deep/file": "unseen"})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{AgingWindow: 2 * time.Second})
		mustMount(t, v, "usr")
		// Warm the cache, then disconnect.
		if _, err := v.ReadFile("/coda/usr/doc"); err != nil {
			t.Fatal(err)
		}
		w.net.SetUp("c1", "server", false)
		v.Disconnect()
		if v.State() != venus.Emulating {
			t.Fatalf("state = %v", v.State())
		}

		// Cached data remains usable; new names are creatable.
		if data, _ := v.ReadFile("/coda/usr/doc"); string(data) != "old" {
			t.Error("cached read failed while disconnected")
		}
		if err := v.WriteFile("/coda/usr/doc", []byte("new")); err != nil {
			t.Fatal(err)
		}
		if err := v.WriteFile("/coda/usr/trip/notes", []byte("packing list")); err == nil {
			t.Error("create under uncached directory should miss")
		}
		if err := v.Mkdir("/coda/usr/trip"); err != nil {
			t.Fatal(err)
		}
		if err := v.WriteFile("/coda/usr/trip/notes", []byte("packing list")); err != nil {
			t.Fatal(err)
		}
		if v.CMLRecords() == 0 {
			t.Fatal("no CML records while disconnected")
		}
		// An object whose directory entry is cached but whose contents
		// are not: a disconnected miss. A name absent from a cached
		// directory, by contrast, is an authoritative ErrNotFound.
		if _, err := v.ReadFile("/coda/usr/deep/file"); !errors.Is(err, venus.ErrCacheMiss) {
			t.Errorf("uncached read = %v, want cache miss", err)
		}
		if _, err := v.ReadFile("/coda/usr/nonexistent"); !errors.Is(err, venus.ErrNotFound) {
			t.Errorf("absent name = %v, want ErrNotFound", err)
		}

		// Reconnect at LAN speed: trickle drains, state returns to
		// hoarding once the CML is empty.
		w.net.SetUp("c1", "server", true)
		v.Connect(10_000_000)
		w.sim.Sleep(time.Minute)
		if got, _ := w.srv.ReadFile("usr", "doc"); string(got) != "new" {
			t.Errorf("server doc = %q after reintegration", got)
		}
		if got, _ := w.srv.ReadFile("usr", "trip/notes"); string(got) != "packing list" {
			t.Errorf("server notes = %q", got)
		}
		if v.CMLRecords() != 0 {
			t.Errorf("CML not drained: %d records", v.CMLRecords())
		}
		if v.State() != venus.Hoarding {
			t.Errorf("state = %v after drain on strong net", v.State())
		}
	})
}

func TestEmulatingToHoardingPassesThroughWriteDisconnected(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "usr")
		v.Disconnect()
		v.Connect(10_000_000)
		st := v.Stats()
		if st.Transitions["emulating->write-disconnected"] != 1 {
			t.Errorf("transitions = %v", st.Transitions)
		}
	})
}

func TestLogOptimizationsWhileDisconnected(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "usr")
		v.Disconnect()
		for i := 0; i < 5; i++ {
			if err := v.WriteFile("/coda/usr/buf", bytes.Repeat([]byte("x"), 1000)); err != nil {
				t.Fatal(err)
			}
		}
		// One create + one store survive; four stores cancelled.
		if n := v.CMLRecords(); n != 2 {
			t.Errorf("CML records = %d, want 2", n)
		}
		if v.OptimizedBytes() < 4000 {
			t.Errorf("OptimizedBytes = %d", v.OptimizedBytes())
		}
		// The paper's canonical chain: create+store+unlink vanishes.
		v.WriteFile("/coda/usr/tmpfile", []byte("scratch"))
		before := v.CMLRecords()
		v.Remove("/coda/usr/tmpfile")
		if after := v.CMLRecords(); after != before-2 {
			t.Errorf("records %d -> %d after unlink of in-log creation", before, after)
		}
	})
}

func TestTrickleRespectsAgingWindow(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{
			AgingWindow:          30 * time.Second,
			PinWriteDisconnected: true,
		})
		mustMount(t, v, "usr")
		v.WriteDisconnect()
		if err := v.WriteFile("/coda/usr/f", []byte("young")); err != nil {
			t.Fatal(err)
		}
		// Before the window: nothing shipped.
		w.sim.Sleep(15 * time.Second)
		if _, err := w.srv.ReadFile("usr", "f"); err == nil {
			t.Error("record reintegrated before aging window expired")
		}
		// After the window: shipped.
		w.sim.Sleep(30 * time.Second)
		if got, err := w.srv.ReadFile("usr", "f"); err != nil || string(got) != "young" {
			t.Errorf("after window: %q, %v", got, err)
		}
		if v.State() != venus.WriteDisconnected {
			t.Errorf("pinned state moved to %v", v.State())
		}
	})
}

func TestWeakConnectivityStaysWriteDisconnected(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{AgingWindow: time.Second})
		w.setLink("c1", netsim.Modem)
		mustMount(t, v, "usr")
		v.Connect(9600)
		if err := v.WriteFile("/coda/usr/memo", []byte("weakly written")); err != nil {
			t.Fatal(err)
		}
		w.sim.Sleep(90 * time.Second)
		// Update propagated, but the state stays write-disconnected at
		// modem bandwidth.
		if got, err := w.srv.ReadFile("usr", "memo"); err != nil || string(got) != "weakly written" {
			t.Errorf("memo = %q, %v", got, err)
		}
		if v.State() != venus.WriteDisconnected {
			t.Errorf("state = %v at 9.6 Kb/s", v.State())
		}
	})
}

func TestFragmentedLargeStoreOverModem(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{AgingWindow: time.Second, PinWriteDisconnected: true})
		w.setLink("c1", netsim.Modem)
		mustMount(t, v, "usr")
		v.Connect(9600)
		big := bytes.Repeat([]byte("chunky"), 20_000) // 120 KB >> C=36 KB
		if err := v.WriteFile("/coda/usr/big", big); err != nil {
			t.Fatal(err)
		}
		// 120 KB at 9.6 Kb/s is ~100 s of line time.
		w.sim.Sleep(5 * time.Minute)
		got, err := w.srv.ReadFile("usr", "big")
		if err != nil || !bytes.Equal(got, big) {
			t.Fatalf("big file after fragmented reintegration: %d bytes, %v", len(got), err)
		}
	})
}

func TestCallbackBreakRefetch(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"shared": "v1"})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "usr")
		if _, err := v.ReadFile("/coda/usr/shared"); err != nil {
			t.Fatal(err)
		}
		// Another client updates; break arrives; next read refetches.
		w.srv.WriteFile("usr", "shared", []byte("v2"))
		w.sim.Sleep(time.Second)
		data, err := v.ReadFile("/coda/usr/shared")
		if err != nil || string(data) != "v2" {
			t.Errorf("after break: %q, %v", data, err)
		}
	})
}

// TestAdminWriteBreaksDirectoryOnTheWay: a server-side write that makes
// directories on its way breaks the callback on the directory it enters
// the first of them in, so a client that listed that directory sees the
// new entry.
func TestAdminWriteBreaksDirectoryOnTheWay(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"a/x": "x"})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "usr")
		if names, err := v.ReadDir("/coda/usr/a"); err != nil || fmt.Sprint(names) != "[x]" {
			t.Fatalf("ReadDir a = %v, %v", names, err)
		}
		if _, err := w.srv.WriteFile("usr", "a/b/c", []byte("c")); err != nil {
			t.Fatal(err)
		}
		w.sim.Sleep(10 * time.Second)
		if names, err := v.ReadDir("/coda/usr/a"); err != nil || fmt.Sprint(names) != "[b x]" {
			t.Errorf("ReadDir a after the server made a/b/c = %v, %v; want [b x]", names, err)
		}
	})
}

// TestRereadOfRewrittenFileKeepsCacheSpace: a file another writer
// rewrites at the same size takes the same cache space however often it
// is revalidated and refetched.
func TestRereadOfRewrittenFileKeepsCacheSpace(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"shared": "v0"})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "usr")
		var want int64
		for i := 0; i < 10; i++ {
			if _, err := w.srv.WriteFile("usr", "shared", bytes.Repeat([]byte{byte('a' + i)}, 8000)); err != nil {
				t.Fatal(err)
			}
			w.sim.Sleep(time.Second)
			if _, err := v.ReadFile("/coda/usr/shared"); err != nil {
				t.Fatal(err)
			}
			got := v.CacheStats().OccupiedBytes
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("re-read %d: OccupiedBytes = %d, want %d", i, got, want)
			}
		}
	})
}

// TestLoggedUpdateOfStatusOnlyFile: a logged rename, link, remove of one
// of two names or setattr dirties a file Venus knows only by status. A
// read then fetches its contents, or misses when disconnected; it never
// serves the empty contents of the status-only copy, and the fetched copy
// still shows the logged updates.
func TestLoggedUpdateOfStatusOnlyFile(t *testing.T) {
	steps := map[string]func(v *venus.Venus) error{
		"rename": func(v *venus.Venus) error { return v.Rename("/coda/usr/a", "/coda/usr/moved") },
		"link+remove": func(v *venus.Venus) error {
			if err := v.Link("/coda/usr/a", "/coda/usr/second"); err != nil {
				return err
			}
			return v.Remove("/coda/usr/second")
		},
		"link":    func(v *venus.Venus) error { return v.Link("/coda/usr/a", "/coda/usr/second") },
		"setattr": func(v *venus.Venus) error { return v.SetAttr("/coda/usr/a", 0600) },
	}
	for name, step := range steps {
		for _, disconnected := range []bool{false, true} {
			w := newWorld(t)
			w.seed("usr", map[string]string{"a": "contents"})
			w.sim.Run(func() {
				defer w.srv.Close()
				v := w.venus("c1", venus.Config{PinWriteDisconnected: true})
				defer v.Close()
				mustMount(t, v, "usr")
				before, err := v.Stat("/coda/usr/a")
				if err != nil {
					t.Fatal(err)
				}
				v.WriteDisconnect()
				if err := step(v); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if disconnected {
					v.Disconnect()
				}
				path := "/coda/usr/a"
				if name == "rename" {
					path = "/coda/usr/moved"
				}
				got, err := v.ReadFile(path)
				var miss *venus.MissError
				switch {
				case disconnected && !errors.As(err, &miss):
					t.Errorf("%s, disconnected: read = %q, %v; want a miss", name, got, err)
				case !disconnected && (err != nil || string(got) != "contents"):
					t.Errorf("%s: read = %q, %v; want the contents", name, got, err)
				}
				if disconnected {
					return
				}
				st, err := v.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				wantLinks, wantMode := before.Links, before.Mode
				switch name {
				case "link":
					wantLinks++
				case "setattr":
					wantMode = 0600
				}
				if st.Links != wantLinks || st.Mode != wantMode {
					t.Errorf("%s: after the read links %d mode %o, want %d %o", name, st.Links, st.Mode, wantLinks, wantMode)
				}
			})
		}
	}
}

// TestRenameRefusesCycle: a directory cannot move into its own subtree,
// on either route; the refusal comes before anything is sent or logged.
func TestRenameRefusesCycle(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"d/e/f": "x"})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{PinWriteDisconnected: true})
		mustMount(t, v, "usr")
		for _, logged := range []bool{false, true} {
			if logged {
				v.WriteDisconnect()
			}
			for _, to := range []string{"/coda/usr/d/d", "/coda/usr/d/e/d", "/coda/usr/d/e/../d"} {
				if err := v.Rename("/coda/usr/d", to); err == nil {
					t.Errorf("logged=%v: rename d to %s accepted", logged, to)
				}
			}
			if n := v.CMLRecords(); n != 0 {
				t.Errorf("logged=%v: %d records logged", logged, n)
			}
		}
		if _, err := w.srv.Resolve("usr", "d/e/f"); err != nil {
			t.Errorf("d/e/f after refused renames: %v", err)
		}
		if _, err := v.Stat("/coda/usr/d/e/f"); err != nil {
			t.Errorf("client d/e/f after refused renames: %v", err)
		}
	})
}

func TestBreakIgnoredOnDirtyObjectThenConflict(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"shared": "base"})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{AgingWindow: 20 * time.Second, PinWriteDisconnected: true})
		mustMount(t, v, "usr")
		if _, err := v.ReadFile("/coda/usr/shared"); err != nil {
			t.Fatal(err)
		}
		v.WriteDisconnect()
		if err := v.WriteFile("/coda/usr/shared", []byte("mine")); err != nil {
			t.Fatal(err)
		}
		// A strongly-connected client wins the race at the server.
		w.srv.WriteFile("usr", "shared", []byte("theirs"))
		w.sim.Sleep(time.Second)
		// §4.3.2: the break is ignored; the local copy still reads back.
		if data, _ := v.ReadFile("/coda/usr/shared"); string(data) != "mine" {
			t.Errorf("dirty object clobbered by callback break: %q", data)
		}
		// Reintegration then detects the update/update conflict.
		w.sim.Sleep(time.Minute)
		conflicts := v.Conflicts()
		if len(conflicts) == 0 {
			t.Fatal("no conflict surfaced")
		}
		if got, _ := w.srv.ReadFile("usr", "shared"); string(got) != "theirs" {
			t.Errorf("server copy = %q, want the connected client's update", got)
		}
		if v.CMLRecords() != 0 {
			t.Errorf("conflicting record still in CML: %d", v.CMLRecords())
		}
	})
}

func TestRapidValidationOnReconnect(t *testing.T) {
	w := newWorld(t)
	files := map[string]string{}
	for i := 0; i < 20; i++ {
		files[fmt.Sprintf("src/f%02d.c", i)] = fmt.Sprintf("content %d", i)
	}
	w.seed("proj", files)
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "proj")
		for path := range files {
			if _, err := v.ReadFile("/coda/proj/" + path); err != nil {
				t.Fatal(err)
			}
		}
		// A hoard walk caches the volume stamp (§4.2.1).
		if err := v.HoardWalk(); err != nil {
			t.Fatal(err)
		}
		v.Disconnect()
		v.Connect(10_000_000)
		st := v.Stats()
		if st.VolValidations != 1 || st.VolValidationsOK != 1 {
			t.Errorf("validations = %d ok = %d, want 1/1", st.VolValidations, st.VolValidationsOK)
		}
		if st.ObjsSavedByVolume < 20 {
			t.Errorf("ObjsSavedByVolume = %d, want ≥ 20", st.ObjsSavedByVolume)
		}
		if st.MissingStamp != 0 {
			t.Errorf("MissingStamp = %d", st.MissingStamp)
		}
		// Everything is valid without touching the network again.
		w.net.SetUp("c1", "server", false)
		for path, want := range files {
			if data, err := v.ReadFile("/coda/proj/" + path); err != nil || string(data) != want {
				t.Fatalf("%s after rapid validation: %q, %v", path, data, err)
			}
		}
	})
}

func TestStaleVolumeStampFallsBackToObjectValidation(t *testing.T) {
	w := newWorld(t)
	w.seed("proj", map[string]string{"stable": "same", "moving": "v1"})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "proj")
		v.ReadFile("/coda/proj/stable")
		v.ReadFile("/coda/proj/moving")
		v.HoardWalk()
		v.Disconnect()
		// Someone updates the volume while we are away.
		w.srv.WriteFile("proj", "moving", []byte("v2"))
		v.Connect(10_000_000)
		st := v.Stats()
		if st.VolValidationsOK != 0 {
			t.Errorf("stale stamp validated: %+v", st)
		}
		// Unchanged object revalidates by version; changed one refetches.
		if data, err := v.ReadFile("/coda/proj/stable"); err != nil || string(data) != "same" {
			t.Errorf("stable = %q, %v", data, err)
		}
		if data, err := v.ReadFile("/coda/proj/moving"); err != nil || string(data) != "v2" {
			t.Errorf("moving = %q, %v", data, err)
		}
		if v.Stats().ObjValidations == 0 {
			t.Error("no individual object validations recorded")
		}
	})
}

func TestMissingStampCounted(t *testing.T) {
	w := newWorld(t)
	w.seed("proj", map[string]string{"f": "x"})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "proj")
		v.ReadFile("/coda/proj/f")
		// No hoard walk: no volume stamp cached.
		v.Disconnect()
		v.Connect(10_000_000)
		if st := v.Stats(); st.MissingStamp != 1 {
			t.Errorf("MissingStamp = %d, want 1", st.MissingStamp)
		}
	})
}

func TestPatienceDefersBigMissOverModem(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{
		"big.tar":   string(bytes.Repeat([]byte("B"), 1<<20)),
		"small.txt": "tiny",
	})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		w.setLink("c1", netsim.Modem)
		mustMount(t, v, "usr")
		v.Connect(9600)

		// Small files fetch transparently (cost under α=2s... actually
		// under τ for default priority).
		if _, err := v.ReadFile("/coda/usr/small.txt"); err != nil {
			t.Fatalf("small file deferred: %v", err)
		}
		// A 1 MB file at 9.6 Kb/s is ~15 minutes: deferred.
		_, err := v.ReadFile("/coda/usr/big.tar")
		var miss *venus.MissError
		if !errors.As(err, &miss) {
			t.Fatalf("big fetch = %v, want MissError", err)
		}
		if miss.Cost <= miss.Threshold {
			t.Errorf("deferred although cost %v ≤ threshold %v", miss.Cost, miss.Threshold)
		}
		misses := v.Misses()
		if len(misses) != 1 || misses[0].Path != "/coda/usr/big.tar" {
			t.Errorf("miss list = %+v", misses)
		}

		// The user hoards it at high priority; the walk fetches it.
		v.HoardAdd("/coda/usr/big.tar", 900, false)
		if err := v.HoardWalk(); err != nil {
			t.Fatal(err)
		}
		if data, err := v.ReadFile("/coda/usr/big.tar"); err != nil || len(data) != 1<<20 {
			t.Errorf("after hoarding: %d bytes, %v", len(data), err)
		}
		st := v.Stats()
		if st.DeferredMisses != 1 {
			t.Errorf("DeferredMisses = %d", st.DeferredMisses)
		}
	})
}

func TestAdvisorControlsDataWalk(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{
		"huge.bin": string(bytes.Repeat([]byte("H"), 2<<20)),
	})
	w.sim.Run(func() {
		var sawItems []venus.WalkItem
		adv := venus.FuncAdvisor(func(items []venus.WalkItem) []bool {
			sawItems = items
			out := make([]bool, len(items))
			return out // refuse everything
		})
		v := w.venus("c1", venus.Config{Advisor: adv})
		w.setLink("c1", netsim.Modem)
		mustMount(t, v, "usr")
		v.Connect(9600)
		v.HoardAdd("/coda/usr/huge.bin", 100, false)
		if err := v.HoardWalk(); err != nil {
			t.Fatal(err)
		}
		if len(sawItems) != 1 || sawItems[0].Path != "/coda/usr/huge.bin" {
			t.Fatalf("advisor saw %+v", sawItems)
		}
		if sawItems[0].PreApproved {
			t.Error("2 MB at 9.6 Kb/s pre-approved at priority 100")
		}
		// Refused: still a placeholder, so a read defers.
		if _, err := v.ReadFile("/coda/usr/huge.bin"); !errors.Is(err, venus.ErrCacheMiss) {
			t.Errorf("read after refusal = %v", err)
		}
	})
}

func TestHoardWalkMetaExpansion(t *testing.T) {
	w := newWorld(t)
	w.seed("proj", map[string]string{
		"src/a.c":       "aaa",
		"src/sub/b.c":   "bbb",
		"src/sub/c.h":   "ccc",
		"unrelated/d.c": "ddd",
	})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "proj")
		v.HoardAdd("/coda/proj/src", 500, true)
		if err := v.HoardWalk(); err != nil {
			t.Fatal(err)
		}
		// The whole subtree is now cached: sever and read.
		w.net.SetUp("c1", "server", false)
		v.Disconnect()
		for _, p := range []string{"src/a.c", "src/sub/b.c", "src/sub/c.h"} {
			if _, err := v.ReadFile("/coda/proj/" + p); err != nil {
				t.Errorf("%s not hoarded: %v", p, err)
			}
		}
		if _, err := v.ReadFile("/coda/proj/unrelated/d.c"); err == nil {
			t.Error("unhoarded file available while disconnected?")
		}
	})
}

func TestCacheEvictionRespectsHoardPriority(t *testing.T) {
	w := newWorld(t)
	files := map[string]string{}
	for i := 0; i < 10; i++ {
		files[fmt.Sprintf("f%d", i)] = string(bytes.Repeat([]byte("x"), 100_000))
	}
	w.seed("usr", files)
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{CacheBytes: 450_000})
		mustMount(t, v, "usr")
		v.HoardAdd("/coda/usr/f0", 900, false)
		v.HoardWalk()
		for i := 1; i < 10; i++ {
			if _, err := v.ReadFile(fmt.Sprintf("/coda/usr/f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		// f0 was hoarded at high priority; reading 9 more 100 KB files
		// through a 450 KB cache must not evict it.
		w.net.SetUp("c1", "server", false)
		v.Disconnect()
		if _, err := v.ReadFile("/coda/usr/f0"); err != nil {
			t.Errorf("hoarded f0 evicted: %v", err)
		}
	})
}

func TestForceReintegrate(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{AgingWindow: time.Hour, PinWriteDisconnected: true})
		mustMount(t, v, "usr")
		v.WriteDisconnect()
		v.WriteFile("/coda/usr/urgent", []byte("send now"))
		// Aging window is an hour, but the user is about to hang up.
		if err := v.ForceReintegrate(); err != nil {
			t.Fatal(err)
		}
		if got, err := w.srv.ReadFile("usr", "urgent"); err != nil || string(got) != "send now" {
			t.Errorf("urgent = %q, %v", got, err)
		}
	})
}

// TestForceReintegrateWhileTrickleShips pins the fix for a hang: on a
// weak link the volume's trickle loop is parked in an SFTP wait, holding
// the drain lock, when the user forces reintegration. The second drainer
// must park through the clock; blocked on a plain mutex it still counted
// as runnable, so virtual time never reached the first drainer's wakeup
// and the whole simulation froze. A hang cannot be seen from inside the
// simulation, hence the wall-clock deadline.
func TestForceReintegrateWhileTrickleShips(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.sim.Run(func() {
			v := w.venus("c1", venus.Config{AgingWindow: time.Second})
			if err := v.Mount("usr"); err != nil {
				t.Error(err)
				return
			}
			v.WriteDisconnect()
			w.setLink("c1", netsim.Modem)
			for _, name := range []string{"a", "b", "c"} {
				if err := v.WriteFile("/coda/usr/"+name, bytes.Repeat([]byte(name), 16<<10)); err != nil {
					t.Error(err)
					return
				}
			}
			// 16 KB takes ~14 s at 9.6 kb/s: five seconds in, the trickle
			// loop (interval and aging window both 1 s) is mid-chunk.
			w.sim.Sleep(5 * time.Second)
			if err := v.ForceReintegrate(); err != nil {
				t.Error(err)
			}
			if n := v.CMLRecords(); n != 0 {
				t.Errorf("CML holds %d records after ForceReintegrate", n)
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ForceReintegrate behind an in-flight trickle chunk froze virtual time")
	}
}

func TestDemotionOnWeakBandwidth(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"f": "x"})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "usr")
		if v.State() != venus.Hoarding {
			t.Fatal("not hoarding initially")
		}
		// The link degrades to a modem; traffic reveals it. The estimate
		// starts at the Ethernet's true 10 Mb/s and is an arithmetic
		// average, so it takes eleven 4 KB samples to sink below the
		// 1 Mb/s threshold.
		w.setLink("c1", netsim.Modem)
		for i := 0; i < 12; i++ {
			v.ReadFile("/coda/usr/f")
			v.WriteFile("/coda/usr/g", bytes.Repeat([]byte("y"), 4096))
			w.sim.Sleep(5 * time.Second)
		}
		w.sim.Sleep(30 * time.Second)
		if v.State() != venus.WriteDisconnected {
			t.Errorf("state = %v on modem link (bw estimate %d)", v.State(), v.LinkBandwidth())
		}
	})
}

func TestServerUnreachableDemotesToEmulating(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"f": "x"})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "usr")
		v.ReadFile("/coda/usr/f")
		w.net.SetUp("c1", "server", false)
		// A write-through attempt times out and Venus falls back to
		// logging — the update is not lost.
		if err := v.WriteFile("/coda/usr/f", []byte("offline edit")); err != nil {
			t.Fatalf("write during outage: %v", err)
		}
		if v.State() != venus.Emulating {
			t.Errorf("state = %v after server timeout", v.State())
		}
		if v.CMLRecords() == 0 {
			t.Error("offline edit not logged")
		}
		// Outage ends; reconnect and drain.
		w.net.SetUp("c1", "server", true)
		v.Connect(10_000_000)
		w.sim.Sleep(11 * time.Minute) // past the default aging window
		if got, _ := w.srv.ReadFile("usr", "f"); string(got) != "offline edit" {
			t.Errorf("server f = %q", got)
		}
	})
}

func TestMountUnknownVolume(t *testing.T) {
	w := newWorld(t)
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		if err := v.Mount("ghost"); err == nil {
			t.Error("mounted a nonexistent volume")
		}
	})
}

func TestErrorTaxonomy(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"dir/f": "x"})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "usr")
		if _, err := v.ReadFile("/coda/usr/absent"); !errors.Is(err, venus.ErrNotFound) {
			t.Errorf("absent: %v", err)
		}
		if _, err := v.ReadFile("/coda/usr/dir"); !errors.Is(err, venus.ErrIsDir) {
			t.Errorf("read dir: %v", err)
		}
		if _, err := v.ReadDir("/coda/usr/dir/f"); !errors.Is(err, venus.ErrNotDir) {
			t.Errorf("readdir file: %v", err)
		}
		if err := v.Mkdir("/coda/usr/dir"); !errors.Is(err, venus.ErrExist) {
			t.Errorf("mkdir existing: %v", err)
		}
		if err := v.Rmdir("/coda/usr/dir"); !errors.Is(err, venus.ErrNotEmpty) {
			t.Errorf("rmdir non-empty: %v", err)
		}
		if err := v.Remove("/coda/usr/dir"); !errors.Is(err, venus.ErrIsDir) {
			t.Errorf("remove dir: %v", err)
		}
	})
}

func TestStatAndBandwidthExport(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"f": "hello"})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "usr")
		st, err := v.Stat("/coda/usr/f")
		if err != nil || st.Length != 5 || st.Type != codafs.File {
			t.Errorf("Stat = %+v, %v", st, err)
		}
		// Transport estimates are exported to Venus (§4.1).
		v.ReadFile("/coda/usr/f")
		if v.LinkBandwidth() <= 0 {
			t.Error("no bandwidth estimate after traffic")
		}
	})
}
