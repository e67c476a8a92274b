package venus_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/codafs"
	"repro/internal/venus"
)

// routePaths are the eleven paths the route tests compare: everything
// the twelve-op script (routeScript) touches, present or not at its end.
var routePaths = []string{"", "old.txt", "docs", "docs/new.txt", "docs/moved.txt", "docs/hard", "docs/ptr",
	"doomed.txt", "tmp", "renamed.txt", "docs/second"}

// routeWorld seeds the volume the route tests run in.
func routeWorld(t *testing.T) *world {
	t.Helper()
	w := newWorld(t)
	w.seed("usr", map[string]string{"old.txt": "old contents", "doomed.txt": "x", "rename-me.txt": "r"})
	if _, err := w.srv.MakeDir("usr", "tmp"); err != nil {
		t.Fatal(err)
	}
	return w
}

// routeWarm caches what the script will touch, so every operation finds
// its objects without a fetch.
func routeWarm(t *testing.T, v *venus.Venus) {
	t.Helper()
	for _, p := range []string{"old.txt", "doomed.txt", "rename-me.txt"} {
		if _, err := v.ReadFile("/coda/usr/" + p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.ReadDir("/coda/usr/tmp"); err != nil {
		t.Fatal(err)
	}
}

// routeScript runs all six mutating operations, twelve calls in all: the
// last three set a zero mode, which leaves the mode as it is, and add and
// remove a second name, which leaves the object and its first name.
func routeScript(t *testing.T, v *venus.Venus) {
	t.Helper()
	for i, op := range []func() error{
		func() error { return v.Mkdir("/coda/usr/docs") },
		func() error { return v.WriteFile("/coda/usr/docs/new.txt", []byte("created then stored")) },
		func() error { return v.WriteFile("/coda/usr/old.txt", []byte("overwritten")) },
		func() error { return v.Symlink("../old.txt", "/coda/usr/docs/ptr") },
		func() error { return v.Link("/coda/usr/old.txt", "/coda/usr/docs/hard") },
		func() error { return v.Rename("/coda/usr/rename-me.txt", "/coda/usr/docs/moved.txt") },
		func() error { return v.SetAttr("/coda/usr/old.txt", 0600) },
		func() error { return v.Remove("/coda/usr/doomed.txt") },
		func() error { return v.Rmdir("/coda/usr/tmp") },
		func() error { return v.SetAttr("/coda/usr/docs/new.txt", 0) },
		func() error { return v.Link("/coda/usr/docs/new.txt", "/coda/usr/docs/second") },
		func() error { return v.Remove("/coda/usr/docs/second") },
	} {
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

// clientView is what v shows at routePaths: each status with the fields
// blank clears, and a file's contents or a directory's listing.
func clientView(v *venus.Venus, blank func(codafs.Status) codafs.Status) []string {
	var view []string
	for _, p := range routePaths {
		cp := "/coda/usr/" + p
		line := cp + ": "
		if st, err := v.Stat(cp); err != nil {
			line += "absent"
		} else {
			line += fmt.Sprintf("%+v", blank(st))
			switch st.Type {
			case codafs.File:
				data, _ := v.ReadFile(cp)
				line += fmt.Sprintf(" %q", data)
			case codafs.Directory:
				names, _ := v.ReadDir(cp)
				line += fmt.Sprintf(" %v", names)
			}
		}
		view = append(view, line)
	}
	return view
}

// TestRoutesAgree runs one script of all six mutating operations in twin
// worlds built from one seed — once hoarding, every update written
// through, and once write-disconnected, every update logged and then
// reintegrated — and demands the same server tree and contents and the
// same client view either way (§4.3: one update, two routes).
//
// Left out of the comparison, each for a stated reason. Version: the
// server bumps a touched object once per batch, and a connected update
// is a batch of one where a chunk is a batch of many. ModTime: a
// written-through store or create leaves it zero, because StoreOp and
// MakeObject carry no time — a known defect listed under ROADMAP item 1;
// drop ModTime from blank when it is fixed.
func TestRoutesAgree(t *testing.T) {
	blank := func(st codafs.Status) codafs.Status {
		st.Version, st.ModTime = 0, time.Time{}
		return st
	}
	run := func(logged bool) (srvView, cliView []string) {
		w := routeWorld(t)
		w.sim.Run(func() {
			v := w.venus("c1", venus.Config{ClientID: 9, AgingWindow: time.Hour, PinWriteDisconnected: logged})
			mustMount(t, v, "usr")
			routeWarm(t, v)
			want := venus.Hoarding
			if logged {
				v.WriteDisconnect()
				want = venus.WriteDisconnected
			}
			routeScript(t, v)
			if got := v.State(); got != want {
				t.Fatalf("logged=%v: state %v after the script, want %v", logged, got, want)
			}
			if logged {
				if v.CMLRecords() == 0 {
					t.Fatal("write-disconnected script logged nothing")
				}
				if err := v.ForceReintegrate(); err != nil {
					t.Fatal(err)
				}
			} else if v.CMLRecords() != 0 {
				t.Fatal("hoarding script logged records")
			}
			for _, p := range routePaths {
				line := "usr/" + p + ": "
				if st, err := w.srv.Resolve("usr", p); err != nil {
					line += "absent"
				} else {
					line += fmt.Sprintf("%+v", blank(st))
					if st.Type == codafs.File {
						data, _ := w.srv.ReadFile("usr", p)
						line += fmt.Sprintf(" %q", data)
					}
				}
				srvView = append(srvView, line)
			}
			cliView = clientView(v, blank)
		})
		return srvView, cliView
	}
	srvThrough, cliThrough := run(false)
	srvLogged, cliLogged := run(true)
	if !reflect.DeepEqual(srvThrough, srvLogged) {
		t.Errorf("server state differs by route\nwritten through: %q\nlogged:          %q", srvThrough, srvLogged)
	}
	if !reflect.DeepEqual(cliThrough, cliLogged) {
		t.Errorf("client view differs by route\nwritten through: %q\nlogged:          %q", cliThrough, cliLogged)
	}
}
