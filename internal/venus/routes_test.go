package venus_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/codafs"
	"repro/internal/venus"
)

// TestRoutesAgree runs one script of all six mutating operations in twin
// worlds built from one seed — once hoarding, every update written
// through, and once write-disconnected, every update logged and then
// reintegrated — and demands the same server tree and contents and the
// same client view either way (§4.3: one update, two routes).
//
// Left out of the comparison, each for a stated reason. Version, on both
// sides: the server bumps a touched object once per batch, and a connected
// update is a batch of one where a chunk is a batch of many. ModTime, on
// both sides: a written-through store or create leaves it zero, because
// StoreOp and MakeObject carry no time. And two fields of the client's
// cached status that neither route keeps true to the server's: a
// directory's Length (only a written-through create refreshes it) and a
// logged symlink's Mode (cached 0644, created 0). The last three are the
// known defects listed under ROADMAP item 2; drop each from blank when it
// is fixed.
func TestRoutesAgree(t *testing.T) {
	paths := []string{"", "old.txt", "docs", "docs/new.txt", "docs/moved.txt", "docs/hard", "docs/ptr",
		"doomed.txt", "tmp", "renamed.txt"}
	blank := func(st codafs.Status, cached bool) codafs.Status {
		st.Version, st.ModTime = 0, time.Time{}
		if cached && st.Type == codafs.Directory {
			st.Length = 0
		}
		if cached && st.Type == codafs.Symlink {
			st.Mode = 0
		}
		return st
	}
	run := func(logged bool) (srvView, cliView []string) {
		w := newWorld(t)
		w.seed("usr", map[string]string{"old.txt": "old contents", "doomed.txt": "x", "rename-me.txt": "r"})
		if _, err := w.srv.MakeDir("usr", "tmp"); err != nil {
			t.Fatal(err)
		}
		w.sim.Run(func() {
			v := w.venus("c1", venus.Config{ClientID: 9, AgingWindow: time.Hour, PinWriteDisconnected: logged})
			mustMount(t, v, "usr")
			for _, p := range []string{"old.txt", "doomed.txt", "rename-me.txt"} {
				if _, err := v.ReadFile("/coda/usr/" + p); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := v.ReadDir("/coda/usr/tmp"); err != nil {
				t.Fatal(err)
			}
			want := venus.Hoarding
			if logged {
				v.WriteDisconnect()
				want = venus.WriteDisconnected
			}
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
			} {
				if err := op(); err != nil {
					t.Fatalf("logged=%v op %d: %v", logged, i, err)
				}
			}
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
			for _, p := range paths {
				line := "usr/" + p + ": "
				if st, err := w.srv.Resolve("usr", p); err != nil {
					line += "absent"
				} else {
					line += fmt.Sprintf("%+v", blank(st, false))
					if st.Type == codafs.File {
						data, _ := w.srv.ReadFile("usr", p)
						line += fmt.Sprintf(" %q", data)
					}
				}
				srvView = append(srvView, line)

				cp := "/coda/usr/" + p
				line = cp + ": "
				if st, err := v.Stat(cp); err != nil {
					line += "absent"
				} else {
					line += fmt.Sprintf("%+v", blank(st, true))
					switch st.Type {
					case codafs.File:
						data, _ := v.ReadFile(cp)
						line += fmt.Sprintf(" %q", data)
					case codafs.Directory:
						names, _ := v.ReadDir(cp)
						line += fmt.Sprintf(" %v", names)
					}
				}
				cliView = append(cliView, line)
			}
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
