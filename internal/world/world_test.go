package world

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/crashfs"
	"repro/internal/venus"
)

// The power cut at every journal write -> Restart -> Converge ->
// Identical sweep is internal/group's crash test, which runs on this
// builder; the tests here cover what only the builder implements.

// write stores n small files through v and lets the ships land.
func write(t *testing.T, w *World, v *venus.Venus, round, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		path := fmt.Sprintf("/coda/work/r%df%d.txt", round, k)
		if err := v.WriteFile(path, []byte(path)); err != nil {
			t.Fatal(err)
		}
	}
	w.Sim.Sleep(10 * time.Second)
}

// trio is a three-member group carrying "work" and "spare", with
// "work"'s preferred member (the one a client talks to first) returned.
func trio(t *testing.T, w *World, journaled bool) (g *Group, pref int) {
	t.Helper()
	g = w.Group(journaled, "a", "b", "c")
	info, err := g.CreateVolume("work")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.CreateVolume("spare"); err != nil {
		t.Fatal(err)
	}
	return g, int(uint64(info.ID) % uint64(g.Len()))
}

func mount(t *testing.T, w *World, g *Group) *venus.Venus {
	t.Helper()
	v := w.Client("laptop", g, venus.Config{ClientID: 1})
	if err := v.Mount("work"); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestKilledMemberIsLeftOut: after Kill, writes ride on failover, so the
// dead member's state goes stale. Converge must not try to pull to or
// from it (a pull from a dead address is an error), and Identical must
// compare the two survivors only.
func TestKilledMemberIsLeftOut(t *testing.T) {
	w := New(1)
	g, pref := trio(t, w, false)
	w.Run(func() {
		v := mount(t, w, g)
		write(t, w, v, 0, 2)
		g.Kill(pref)
		write(t, w, v, 1, 2)
		if v.Stats().Failovers == 0 {
			t.Error("no failover after the preferred member was killed")
		}
		if err := g.Converge(); err != nil {
			t.Fatalf("converge with a dead member: %v", err)
		}
		members, size, err := g.Identical()
		if err != nil || members != 2 || size == 0 {
			t.Fatalf("Identical = %d members, %d bytes, %v; want the 2 survivors identical", members, size, err)
		}
	})
}

// TestMountCost pins what a mount sends to a three-member group: one
// GetVolume and one root Fetch, group-wide, by each member's
// server_ops_total. Callbacks and liveness need nothing more.
func TestMountCost(t *testing.T) {
	w := New(3)
	g, _ := trio(t, w, false)
	w.Run(func() {
		ops := func() map[string]int64 { // summed over the members
			out := map[string]int64{}
			for key, n := range series(t, w) {
				if labels, ok := strings.CutPrefix(key, "server_ops_total{"); ok {
					out[labels[strings.Index(labels, "op=")+3:len(labels)-1]] += n
				}
			}
			return out
		}
		before := ops()
		mount(t, w, g)
		got := ops()
		for op, n := range before {
			if got[op] -= n; got[op] == 0 {
				delete(got, op)
			}
		}
		if want := map[string]int64{"GetVolume": 1, "Fetch": 1}; !reflect.DeepEqual(got, want) {
			t.Errorf("a mount sent %v, want %v", got, want)
		}
	})
}

// TestRestartRecreatesLostVolumes pins the group.Restart contract the
// builder relies on: a member whose journal holds no record of a volume
// it carried gets the volume back at boot and is repaired by catch-up.
// A journal-first server cannot lose a creation to a power cut, so the
// test loses the whole disk instead.
func TestRestartRecreatesLostVolumes(t *testing.T) {
	w := New(2)
	g, pref := trio(t, w, true)
	w.Run(func() {
		v := mount(t, w, g)
		write(t, w, v, 0, 2)
		victim := (pref + 1) % 3
		g.Kill(victim)
		g.disks[victim] = crashfs.NewMem()
		if err := g.Restart(victim, g.Addrs()[pref]); err != nil {
			t.Fatal(err)
		}
		for _, vol := range []string{"work", "spare"} {
			if _, err := g.Member(victim).VolumeStamp(vol); err != nil {
				t.Errorf("restarted member lacks volume %s: %v", vol, err)
			}
		}
		got, err := g.Member(victim).ReadFile("work", "r0f1.txt")
		if err != nil || string(got) != "/coda/work/r0f1.txt" {
			t.Errorf("restarted member after catch-up: r0f1.txt = %q, %v", got, err)
		}
	})
}

// TestSameSeedSameDump: two worlds from one seed running one program —
// writes, a kill, failover, a journal restart with catch-up, anti-entropy
// — give byte-identical registry dumps.
func TestSameSeedSameDump(t *testing.T) {
	run := func() []byte {
		w := New(7)
		g, pref := trio(t, w, true)
		var dump []byte
		w.Run(func() {
			v := mount(t, w, g)
			write(t, w, v, 0, 3)
			g.Kill(pref)
			write(t, w, v, 1, 3)
			if err := g.Restart(pref, g.Addrs()[(pref+1)%3]); err != nil {
				t.Fatal(err)
			}
			if err := g.Converge(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := g.Identical(); err != nil {
				t.Error(err)
			}
			dump = w.Reg.Dump()
		})
		return dump
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Errorf("same seed, same program, different dumps (%d vs %d bytes)", len(a), len(b))
	}
}
