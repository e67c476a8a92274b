package group_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/venus"
	"repro/internal/world"
)

// TestDivergenceCounter forces real divergence — two members accept
// different log entries at the same LSN during a full partition — and
// requires that anti-entropy reports it loudly AND that the
// group_divergence_total counter fires at the detecting member. The
// counter matters because divergence errors cross the wire as opaque
// strings: only the local hook sees the typed ErrDiverged.
func TestDivergenceCounter(t *testing.T) {
	w := world.New(11)
	sim, net, reg := w.Sim, w.Net, w.Reg
	grp := w.Group(false, "pair0", "pair1")
	if _, err := grp.CreateVolume("work"); err != nil {
		t.Fatal(err)
	}

	w.Run(func() {
		v := w.Client("laptop", grp, venus.Config{ClientID: 1})
		if err := v.Mount("work"); err != nil {
			t.Fatal(err)
		}

		// Partition pair1 from everyone: two writes land only on pair0
		// (LSNs 1 and 2 there), and the ships to pair1 are lost. pair0
		// must end AHEAD of pair1 so the later pull has a suffix to
		// serve — FetchLog only compares chains when one exists.
		net.SetUp("laptop", "pair1", false)
		net.SetUp("pair0", "pair1", false)
		if err := v.WriteFile("/coda/work/a.txt", []byte("landed on pair0")); err != nil {
			t.Fatal(err)
		}
		if err := v.WriteFile("/coda/work/a2.txt", []byte("also pair0")); err != nil {
			t.Fatal(err)
		}

		// Flip the partition: now only pair1 is reachable, so the second
		// write lands there as a DIFFERENT LSN 1. The logs now disagree.
		net.SetUp("laptop", "pair1", true)
		net.SetUp("laptop", "pair0", false)
		if err := v.WriteFile("/coda/work/b.txt", []byte("landed on pair1")); err != nil {
			t.Fatal(err)
		}

		// Heal everything and run anti-entropy. pair0 serves the pull,
		// sees the chain mismatch at LSN 1, and must refuse.
		net.SetUp("laptop", "pair0", true)
		net.SetUp("pair0", "pair1", true)
		sim.Sleep(time.Second)
		err := grp.Member(1).CatchUp(grp.Addrs()[0])
		if err == nil {
			t.Fatal("CatchUp across diverged replicas succeeded, want divergence error")
		}
		if !strings.Contains(err.Error(), "replica diverged") {
			t.Fatalf("CatchUp error = %v, want a replica-diverged report", err)
		}
		// The typed sentinel is only visible on the detecting side; the
		// counter is how the event is observable at all from here.
		if n := reg.Counter("group_divergence_total", obs.L("node", "pair0")).Value(); n < 1 {
			t.Errorf("group_divergence_total{node=pair0} = %d, want >= 1", n)
		}
		if !strings.Contains(string(reg.Dump()), "group_divergence_total") {
			t.Error("registry dump does not carry group_divergence_total")
		}
	})
}
