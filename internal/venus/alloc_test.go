//go:build !race

package venus

import (
	"testing"

	"repro/internal/simtime"
)

// Venus's alloc fences. The race detector changes what allocates, so
// these run only without it.

// TestAllocVenusHitRead pins a warm read — a three-component path
// resolved by hitWalk, contents copied into a buffer the caller sized —
// at zero heap allocations.
func TestAllocVenusHitRead(t *testing.T) {
	sim := simtime.NewSim(simtime.Epoch1995)
	sim.Run(func() {
		v := newHitWorld(t, sim, Hoarding)
		defer v.Close()
		buf := make([]byte, 0, 4096)
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			if buf, err = v.AppendFile(buf[:0], "/coda/v/a/b/clean.txt"); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("hit read: %v allocs, want 0", allocs)
		}
	})
}

// TestAllocVenusHitView pins a warm view — the same three-component
// path resolved by hitWalk, the cached contents handed out without a
// copy — at zero heap allocations.
func TestAllocVenusHitView(t *testing.T) {
	sim := simtime.NewSim(simtime.Epoch1995)
	sim.Run(func() {
		v := newHitWorld(t, sim, Hoarding)
		defer v.Close()
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := v.ViewFile("/coda/v/a/b/clean.txt"); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("hit view: %v allocs, want 0", allocs)
		}
	})
}

// TestAllocVenusHitReadDir pins a warm listing — a two-component path
// resolved by hitWalk, the names copied from the directory's kept
// listing into a slice the caller sized — at zero heap allocations.
func TestAllocVenusHitReadDir(t *testing.T) {
	sim := simtime.NewSim(simtime.Epoch1995)
	sim.Run(func() {
		v := newHitWorld(t, sim, Hoarding)
		defer v.Close()
		names := make([]string, 0, 16)
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			if names, err = v.AppendDir(names[:0], "/coda/v/a/b"); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("hit listing: %v allocs, want 0", allocs)
		}
	})
}

// TestAllocVenusWriteLogged pins a logged update — a 4 KB WriteFile
// while write-disconnected, no journal: the one copy of the data, which
// the record and the cache entry share (codafs.Object), and the CML
// record itself, and nothing else (the owner string is formatted once,
// in New). Rewriting one file keeps the log at one record
// (store-overwrite cancellation).
func TestAllocVenusWriteLogged(t *testing.T) {
	sim := simtime.NewSim(simtime.Epoch1995)
	sim.Run(func() {
		v := newHitWorld(t, sim, WriteDisconnected)
		defer v.Close()
		data := make([]byte, 4096)
		allocs := testing.AllocsPerRun(200, func() {
			if err := v.WriteFile("/coda/v/a/b/clean.txt", data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("logged 4 KB write: %v allocs, want ≤ 2", allocs)
		}
	})
}
