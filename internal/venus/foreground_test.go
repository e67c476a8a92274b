package venus_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/venus"
)

// TestTrickleYieldsToForegroundFetch verifies §4.3.5's design goal: a cache
// miss serviced while trickle reintegration is draining a large backlog
// waits at most on the order of one chunk (~30 s of line time), not on the
// whole backlog.
func TestTrickleYieldsToForegroundFetch(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{
		"wanted.txt": "small and urgent",
	})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{
			AgingWindow:          time.Second,
			TrickleInterval:      time.Second,
			PinWriteDisconnected: true,
		})
		mustMount(t, v, "usr")
		w.setLink("c1", wlModem())
		v.Connect(9600)
		v.HoardAdd("/coda/usr/wanted.txt", 900, false)

		// A 300 KB backlog: ~4.3 minutes of modem line time, drained as
		// ~36 KB chunks.
		for i := 0; i < 10; i++ {
			must(t, v.WriteFile("/coda/usr"+"/big"+string(rune('0'+i)), bytes.Repeat([]byte("b"), 30_000)))
		}
		w.sim.Sleep(20 * time.Second) // trickle is now mid-backlog

		// The user needs a small file that is not cached.
		start := w.sim.Now()
		if _, err := v.ReadFile("/coda/usr/wanted.txt"); err != nil {
			t.Fatalf("foreground fetch failed: %v", err)
		}
		wait := w.sim.Now().Sub(start)

		// One chunk occupies the line for ~30 s; the whole backlog would
		// be ~4 minutes. The fetch must see at most one chunk's delay.
		if wait > 45*time.Second {
			t.Errorf("foreground fetch waited %v; trickle is not yielding between chunks", wait)
		}
		// And reintegration still completes afterwards.
		w.sim.Sleep(10 * time.Minute)
		if v.CMLRecords() != 0 {
			t.Errorf("backlog never drained: %d records", v.CMLRecords())
		}
	})
}

// TestTrickleChunksBackToBack: four full aged chunks on a modem drain one
// after another. The loop waits TrickleInterval - ten minutes here - only
// to find the first; each later chunk leaves as soon as the one before it
// commits, so no two commits are further apart than one chunk's line time.
func TestTrickleChunksBackToBack(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	w.sim.Run(func() {
		const interval = 10 * time.Minute
		v := w.venus("c1", venus.Config{
			AgingWindow:          time.Second,
			TrickleInterval:      interval,
			PinWriteDisconnected: true,
		})
		mustMount(t, v, "usr")
		w.setLink("c1", wlModem())
		v.Connect(9600)
		// 30 KB stores: one to a 36 KB chunk, ~27 s of line time each.
		for i := 0; i < 4; i++ {
			must(t, v.WriteFile(fmt.Sprintf("/coda/usr/chunk%d", i), bytes.Repeat([]byte("c"), 30_000)))
		}
		var commits []time.Time
		for start := w.sim.Now(); len(commits) < 4; w.sim.Sleep(time.Second) {
			if int(v.Stats().Reintegrations) > len(commits) {
				commits = append(commits, w.sim.Now())
			}
			if w.sim.Now().Sub(start) > 2*interval {
				t.Fatalf("%d records left after %v; commits at %v", v.CMLRecords(), 2*interval, commits)
			}
		}
		if n := v.CMLRecords(); n != 0 {
			t.Fatalf("%d records left after 4 commits, want 4 chunks", n)
		}
		for i := 1; i < len(commits); i++ {
			if gap := commits[i].Sub(commits[i-1]); gap > 40*time.Second {
				t.Errorf("commit %d came %v after commit %d: an idle trickle interval between chunks", i, gap, i-1)
			}
		}
	})
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
