package group

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/crashfs"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/venus"
	"repro/internal/wal"
)

func journalOpts(mem *crashfs.Mem) server.JournalOptions {
	return server.JournalOptions{FS: mem, Dir: "sj", Policy: wal.SyncEachRecord}
}

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
	sim := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(sim, 5)
	net.SetDefaults(netsim.Ethernet.Params())
	conns := []netsim.PacketConn{net.Host("srv0"), net.Host("srv1"), net.Host("srv2")}
	grp, err := New(sim, conns)
	if err != nil {
		t.Fatal(err)
	}

	// Every member journals, so whichever member turns out to be the
	// client's preferred one has a journal to crash and recover from.
	mems := make([]*crashfs.Mem, grp.Len())
	for i := range mems {
		mems[i] = crashfs.NewMem()
		if _, err := grp.Member(i).AttachJournal(journalOpts(mems[i])); err != nil {
			t.Fatal(err)
		}
	}
	info, err := grp.CreateVolume("work")
	if err != nil {
		t.Fatal(err)
	}
	victim := int(uint64(info.ID) % uint64(grp.Len()))
	victimAddr := grp.Addrs()[victim]
	// ArmCrash counts writes from now, so the sweep bound is the number of
	// journal writes the scenario performs after this point, not the total.
	preWrites := mems[victim].Writes()
	if crashAt > 0 {
		mems[victim].ArmCrash(crashAt, 0)
	}

	var writes int
	sim.Run(func() {
		v := venus.New(sim, net.Host("laptop"), venus.Config{
			Servers:         grp.Addrs(),
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
		writes = mems[victim].Writes() - preWrites

		if crashAt > 0 {
			if v.Stats().Failovers == 0 {
				t.Errorf("crashAt=%d: no failover despite the victim's journal dying", crashAt)
			}
			// Power-cycle the victim: the dead process leaves the
			// address, the journal reboots with only its durable prefix,
			// and a fresh server recovers from it.
			grp.Member(victim).Close()
			mems[victim].Reboot()
			if _, err := grp.Restart(victim, net.Host(victimAddr), journalOpts(mems[victim])); err != nil {
				t.Fatalf("crashAt=%d: %v", crashAt, err)
			}
		}

		// Anti-entropy: everyone pulls from the most advanced member
		// (the replacement needs it; survivors may also have missed a
		// push while the victim was failing mid-ship).
		best, bestLSN := 0, uint64(0)
		for i := 0; i < grp.Len(); i++ {
			if lsn, _, err := grp.Member(i).VolumeLSN("work"); err == nil && lsn >= bestLSN {
				best, bestLSN = i, lsn
			}
		}
		for i := 0; i < grp.Len(); i++ {
			if i == best {
				continue
			}
			if err := grp.Member(i).CatchUp(grp.Addrs()[best]); err != nil {
				t.Fatalf("crashAt=%d: member %d catch-up from %d: %v", crashAt, i, best, err)
			}
		}
		sim.Sleep(5 * time.Second)

		// Convergence: byte-identical state, files present everywhere.
		var img0 bytes.Buffer
		if err := grp.Member(0).SaveState(&img0); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < grp.Len(); i++ {
			var img bytes.Buffer
			if err := grp.Member(i).SaveState(&img); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(img0.Bytes(), img.Bytes()) {
				t.Errorf("crashAt=%d: member %d diverged from member 0", crashAt, i)
			}
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
