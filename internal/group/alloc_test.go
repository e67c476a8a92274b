//go:build !race

package group

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/venus"
)

// TestAllocReplicatedReintegrate pins the allocations of one full
// disconnected write/reintegrate cycle against a three-member group on
// simulated Ethernet: the client logs K files, reconnects, and drains its
// CML through the preferred member, which ships every entry to both
// peers. The sim is deterministic, so the count is stable; it guards
// against replication bloating the reintegration path. Under the race
// detector bufpool's scratch pool, a sync.Pool, drops items at random, so
// this runs only without it.
func TestAllocReplicatedReintegrate(t *testing.T) {
	const K = 4
	cycle := func() {
		sim := simtime.NewSim(simtime.Epoch1995)
		net := netsim.New(sim, 11)
		net.SetDefaults(netsim.Ethernet.Params())
		conns := []netsim.PacketConn{net.Host("s0"), net.Host("s1"), net.Host("s2")}
		grp, err := New(sim, conns)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := grp.CreateVolume("work"); err != nil {
			t.Fatal(err)
		}
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
			v.Disconnect()
			for k := 0; k < K; k++ {
				if err := v.WriteFile(fmt.Sprintf("/coda/work/f%d.txt", k),
					[]byte(fmt.Sprintf("draft %d", k))); err != nil {
					t.Fatal(err)
				}
			}
			v.Connect(0)
			deadline := sim.Now().Add(10 * time.Minute)
			for v.CMLRecords() > 0 && sim.Now().Before(deadline) {
				sim.Sleep(time.Second)
			}
			if n := v.CMLRecords(); n != 0 {
				t.Fatalf("CML still holds %d records", n)
			}
			grp.Close()
		})
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 672 {
		t.Errorf("one replicated reintegration: %v allocs, want ≤ 672", allocs)
	}
}
