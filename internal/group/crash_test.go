// The group's tests build and power-cycle their deployments through
// internal/world, which imports this package: hence the external test
// package.
package group_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/venus"
	"repro/internal/world"
)

// replicaCrashScenario runs the kill-1-of-3 experiment with a power cut
// armed at the crashAt-th journal write on the client's preferred member
// (0 = never crash). A client reintegrates a disconnected batch; the
// victim's journal dies under it, the client fails over without
// surfacing an error, the victim reboots from its surviving journal
// prefix, pulls the suffix it missed via FetchLog, and the group ends
// byte-identical. Returns the victim's journal write count for the
// sweep's bounds.
func replicaCrashScenario(t *testing.T, crashAt int) int {
	t.Helper()
	const (
		R = 3 // disconnect→write→reintegrate rounds (journal batches)
		K = 2 // files per round
	)
	w := world.New(5)
	sim := w.Sim
	// Every member journals, so whichever member turns out to be the
	// client's preferred one has a journal to crash and recover from.
	grp := w.Group(true, "srv0", "srv1", "srv2")
	info, err := grp.CreateVolume("work")
	if err != nil {
		t.Fatal(err)
	}
	victim := int(uint64(info.ID) % uint64(grp.Len()))
	// ArmCrash counts writes from now, so the sweep bound is the number of
	// journal writes the scenario performs after this point, not the total.
	disk := grp.Disk(victim)
	preWrites := disk.Writes()
	if crashAt > 0 {
		disk.ArmCrash(crashAt, 0)
	}

	var writes int
	w.Run(func() {
		v := w.Client("laptop", grp, venus.Config{
			ClientID:        1,
			AgingWindow:     time.Second,
			TrickleInterval: time.Second,
		})
		if err := v.Mount("work"); err != nil {
			t.Fatal(err)
		}

		// R disconnected batches, reintegrated one at a time — each is
		// one journal write at whichever member receives it, so the sweep
		// can cut the power under any of them. The client must drain every
		// round without an operation surfacing an error: failover is
		// Venus's job, not the caller's.
		for r := 0; r < R; r++ {
			v.Disconnect()
			for k := 0; k < K; k++ {
				if err := v.WriteFile(fmt.Sprintf("/coda/work/r%df%d.txt", r, k),
					[]byte(fmt.Sprintf("draft %d.%d", r, k))); err != nil {
					t.Fatal(err)
				}
			}
			v.Connect(0)
			deadline := sim.Now().Add(30 * time.Minute)
			for v.CMLRecords() > 0 && sim.Now().Before(deadline) {
				sim.Sleep(5 * time.Second)
			}
			if n := v.CMLRecords(); n != 0 {
				t.Fatalf("crashAt=%d round %d: CML still holds %d records", crashAt, r, n)
			}
		}
		writes = disk.Writes() - preWrites

		if crashAt > 0 {
			if v.Stats().Failovers == 0 {
				t.Errorf("crashAt=%d: no failover despite the victim's journal dying", crashAt)
			}
			// Power-cycle the victim: it reboots from its journal's
			// durable prefix.
			if err := grp.Restart(victim, ""); err != nil {
				t.Fatalf("crashAt=%d: %v", crashAt, err)
			}
		}

		// Anti-entropy (the replacement needs it; survivors may also have
		// missed a push while the victim was failing mid-ship), then
		// convergence: byte-identical state, files present everywhere.
		if err := grp.Converge(); err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
		}
		if _, _, err := grp.Identical(); err != nil {
			t.Errorf("crashAt=%d: %v", crashAt, err)
		}
		for r := 0; r < R; r++ {
			for k := 0; k < K; k++ {
				rel := fmt.Sprintf("r%df%d.txt", r, k)
				for i := 0; i < grp.Len(); i++ {
					got, err := grp.Member(i).ReadFile("work", rel)
					if err != nil || string(got) != fmt.Sprintf("draft %d.%d", r, k) {
						t.Errorf("crashAt=%d: member %d %s = %q, %v", crashAt, i, rel, got, err)
					}
				}
			}
		}
	})
	return writes
}

// TestGroupReplicaCrashMidReintegrationRecovery sweeps a power cut
// across every journal write the client's preferred member performs
// during the scenario — before, during, and after it journals the
// reintegrated batch — and requires, at every cut point: the client
// drains its CML with no error surfacing (failover), the rebooted
// victim catches up via FetchLog, and all three members end
// byte-identical.
func TestGroupReplicaCrashMidReintegrationRecovery(t *testing.T) {
	// Baseline run with no crash fixes the sweep's upper bound.
	writes := replicaCrashScenario(t, 0)
	if writes == 0 {
		t.Fatal("baseline run performed no journal writes; sweep is vacuous")
	}
	if t.Failed() {
		t.Fatal("baseline run failed; not sweeping")
	}
	for crashAt := 1; crashAt <= writes; crashAt++ {
		replicaCrashScenario(t, crashAt)
		if t.Failed() {
			t.Fatalf("stopping sweep at crashAt=%d", crashAt)
		}
	}
}
