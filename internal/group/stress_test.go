package group_test

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/venus"
	"repro/internal/world"
)

// TestStressCheckpointDuringReintegration is the lock-order fence
// (DESIGN.md §7, §8): while a client drains multi-volume reintegration
// batches through a 3-replica group, every member is hammered with
// concurrent Checkpoint and SaveState calls. That drives the full
// documented hierarchy — Server.mu -> volume.mu -> WAL.mu on
// the servers, drain token -> journal.mu -> Venus.mu on the client — from
// many goroutines at once. Run under -race it doubles as the data-race
// fence; a lock-order violation shows up as the sim failing to drain
// within the sim-time budget (or as go test's own timeout if the whole
// event loop wedges).
func TestStressCheckpointDuringReintegration(t *testing.T) {
	const (
		V = 3 // volumes reintegrating in the same window
		R = 4 // disconnect -> write -> reconnect rounds
		K = 3 // files per volume per round
	)
	w := world.New(7)
	sim := w.Sim
	// Journals on every member so checkpoints exercise the WAL.mu
	// layer, not just the in-memory snapshot path.
	grp := w.Group(true, "srv0", "srv1", "srv2")
	vols := make([]string, V)
	for i := range vols {
		vols[i] = fmt.Sprintf("work%d", i)
		if _, err := grp.CreateVolume(vols[i]); err != nil {
			t.Fatal(err)
		}
	}

	var done atomic.Bool
	var checkpoints atomic.Int64
	w.Run(func() {
		// One hammer per member, running for the whole client session:
		// checkpoint (journal truncation under every volume lock) and a
		// full state snapshot, back to back, on a cadence deliberately
		// out of phase with the client's 1s trickle interval.
		for i := 0; i < grp.Len(); i++ {
			srv := grp.Member(i)
			sim.Go(func() {
				for !done.Load() {
					if err := srv.Checkpoint(); err != nil {
						t.Errorf("checkpoint: %v", err)
						return
					}
					if err := srv.SaveState(io.Discard); err != nil {
						t.Errorf("save state: %v", err)
						return
					}
					checkpoints.Add(1)
					sim.Sleep(700 * time.Millisecond)
				}
			})
		}

		v := w.Client("laptop", grp, venus.Config{
			ClientID:        1,
			AgingWindow:     time.Second,
			TrickleInterval: time.Second,
		})
		for _, name := range vols {
			if err := v.Mount(name); err != nil {
				t.Errorf("mount %s: %v", name, err)
				done.Store(true)
				return
			}
		}

		for r := 0; r < R; r++ {
			v.Disconnect()
			for _, name := range vols {
				for k := 0; k < K; k++ {
					path := fmt.Sprintf("/coda/%s/r%df%d.txt", name, r, k)
					if err := v.WriteFile(path, []byte(fmt.Sprintf("%s draft %d.%d", name, r, k))); err != nil {
						t.Errorf("write %s: %v", path, err)
						done.Store(true)
						return
					}
				}
			}
			v.Connect(0)
			// The drain budget is the deadlock detector: if any server
			// wedges holding a lock the reintegration path needs, the CML
			// never empties and sim-time blows through the deadline.
			deadline := sim.Now().Add(30 * time.Minute)
			for v.CMLRecords() > 0 && sim.Now().Before(deadline) {
				sim.Sleep(5 * time.Second)
			}
			if n := v.CMLRecords(); n != 0 {
				t.Errorf("round %d: CML still holds %d records after 30m of sim-time — reintegration wedged against the checkpoint hammer", r, n)
				done.Store(true)
				return
			}
		}
		done.Store(true)
	})

	if checkpoints.Load() == 0 {
		t.Fatal("checkpoint hammer never ran; the stress test exercised nothing")
	}
	// The batches must have landed, not just drained: the final round's
	// files readable from every member with the written bytes.
	for _, name := range vols {
		for k := 0; k < K; k++ {
			rel := fmt.Sprintf("r%df%d.txt", R-1, k)
			want := fmt.Sprintf("%s draft %d.%d", name, R-1, k)
			for i := 0; i < grp.Len(); i++ {
				got, err := grp.Member(i).ReadFile(name, rel)
				if err != nil {
					t.Fatalf("member %d read back %s/%s: %v", i, name, rel, err)
				}
				if string(got) != want {
					t.Fatalf("member %d %s/%s: got %q, want %q", i, name, rel, got, want)
				}
			}
		}
	}
}
