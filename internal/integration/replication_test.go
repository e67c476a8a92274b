package integration

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/venus"
)

// TestParallelVolumesReplicatedGroup extends the 1 + 3·C·K per-volume
// stamp invariant to a three-member group: C clients × V volumes writing
// concurrently through their per-volume preferred members, with every
// mutation shipped to the peers. The exact stamp must hold on EVERY
// member — replication may not lose an update, deliver one twice, or
// reorder within a volume — and the members must end byte-identical.
func TestParallelVolumesReplicatedGroup(t *testing.T) {
	const (
		C = 3 // clients
		V = 3 // volumes
		K = 2 // files per (client, volume)
	)
	w := deploy(7, "srv0", "srv1", "srv2")
	for j := 0; j < V; j++ {
		if _, err := w.grp.CreateVolume(fmt.Sprintf("vol%d", j)); err != nil {
			t.Fatal(err)
		}
	}
	w.Run(func() {
		clients := make([]*venus.Venus, C)
		for i := range clients {
			clients[i] = w.venus(fmt.Sprintf("c%d", i), uint32(i+1), venus.Config{})
			for j := 0; j < V; j++ {
				if err := clients[i].Mount(fmt.Sprintf("vol%d", j)); err != nil {
					t.Fatal(err)
				}
			}
		}

		done := simtime.NewQueue[error](w.Sim)
		for i := 0; i < C; i++ {
			for j := 0; j < V; j++ {
				i, j := i, j
				w.Sim.Go(func() {
					var err error
					for k := 0; k < K; k++ {
						path := fmt.Sprintf("/coda/vol%d/c%d_f%d.txt", j, i, k)
						if e := clients[i].WriteFile(path, payload(i, j, k)); e != nil && err == nil {
							err = fmt.Errorf("%s: %w", path, e)
						}
					}
					done.Put(err)
				})
			}
		}
		for n := 0; n < C*V; n++ {
			if err, _ := done.Get(); err != nil {
				t.Fatal(err)
			}
		}
		w.Sim.Sleep(30 * time.Second) // let ships drain group-wide

		want := uint64(1 + 3*C*K)
		for j := 0; j < V; j++ {
			name := fmt.Sprintf("vol%d", j)
			for m := 0; m < w.grp.Len(); m++ {
				stamp, err := w.grp.Member(m).VolumeStamp(name)
				if err != nil {
					t.Fatal(err)
				}
				if stamp != want {
					t.Errorf("member %d %s stamp = %d, want %d", m, name, stamp, want)
				}
			}
		}
		for i := 0; i < C; i++ {
			for j := 0; j < V; j++ {
				for k := 0; k < K; k++ {
					rel := fmt.Sprintf("c%d_f%d.txt", i, k)
					for m := 0; m < w.grp.Len(); m++ {
						got, err := w.grp.Member(m).ReadFile(fmt.Sprintf("vol%d", j), rel)
						if err != nil || !bytes.Equal(got, payload(i, j, k)) {
							t.Errorf("member %d vol%d/%s = %d bytes, %v", m, j, rel, len(got), err)
						}
					}
				}
			}
		}
		if _, _, err := w.grp.Identical(); err != nil {
			t.Error(err)
		}
	})
}

// TestReintegrateRetransmitDedupUnderAckLoss: the preferred member
// applies a reintegration but every packet back to the client is lost,
// so the client times out, fails over, and retransmits the same CML
// batch to the second member. The (client, seq) dedup set must absorb
// the retransmit: the exact single-delivery stamp on both members, the
// CML drained, and the group byte-identical.
//
// The batch is kept to one small file so the Reintegrate body stays
// inline (under rpc2.InlineLimit): a larger body travels by SFTP, whose
// reliable transfer cannot even complete against a dead return path, so
// the preferred member would never receive the batch and there would be
// nothing to deduplicate.
func TestReintegrateRetransmitDedupUnderAckLoss(t *testing.T) {
	const K = 1
	w := deploy(9, "srv0", "srv1")
	info, err := w.grp.CreateVolume("work")
	if err != nil {
		t.Fatal(err)
	}
	prefIdx := int(uint64(info.ID) % uint64(w.grp.Len()))
	pref := w.grp.Addrs()[prefIdx]
	otherIdx := (prefIdx + 1) % w.grp.Len()
	w.Run(func() {
		// AgingWindow holds the records back long enough to reconnect and
		// cut the ack path before the first drain attempt.
		v := w.venus("laptop", 1, venus.Config{AgingWindow: time.Minute})
		if err := v.Mount("work"); err != nil {
			t.Fatal(err)
		}

		// Log a batch while disconnected.
		v.Disconnect()
		for k := 0; k < K; k++ {
			path := fmt.Sprintf("/coda/work/f%d.txt", k)
			if err := v.WriteFile(path, []byte(fmt.Sprintf("draft %d", k))); err != nil {
				t.Fatal(err)
			}
		}

		// Reconnect over healthy links so reconnection validation keeps
		// the preferred member, then kill its return path: reintegration
		// requests will arrive and execute there, but the acks vanish —
		// the lost-ack half of the failover-retransmit scenario.
		v.Connect(0)
		w.Sim.Sleep(5 * time.Second)
		if n := v.CMLRecords(); n != 2*K {
			t.Fatalf("CML drained to %d records before the ack path was cut; raise AgingWindow", n)
		}
		w.Net.ConfigureOneWay(pref, "laptop", func(p *netsim.LinkParams) { p.Up = false })

		deadline := w.Sim.Now().Add(30 * time.Minute)
		for v.CMLRecords() > 0 && w.Sim.Now().Before(deadline) {
			w.Sim.Sleep(10 * time.Second)
		}
		if n := v.CMLRecords(); n != 0 {
			t.Fatalf("CML still holds %d records after failover window", n)
		}
		if v.Stats().Failovers == 0 {
			t.Error("no failover counted despite dead return path")
		}

		// Exact accounting: one delivery's worth of stamps, nothing more.
		// A reintegrated batch bumps the stamp once per distinct object it
		// touches — K files plus the root directory over the initial 1.
		w.Net.ConfigureOneWay(pref, "laptop", func(p *netsim.LinkParams) { p.Up = true })
		w.Sim.Sleep(30 * time.Second) // ships settle
		want := uint64(1 + K + 1)
		for m := 0; m < w.grp.Len(); m++ {
			stamp, err := w.grp.Member(m).VolumeStamp("work")
			if err != nil {
				t.Fatal(err)
			}
			if stamp != want {
				t.Errorf("member %d stamp = %d, want %d (duplicate apply?)", m, stamp, want)
			}
		}
		// Both members saw a Reintegrate (original + retransmit), and the
		// failover target absorbed the whole batch as duplicates.
		if got := w.grp.Member(otherIdx).Stats().DuplicatesDropped; got != 2*K {
			t.Errorf("failover target DuplicatesDropped = %d, want %d", got, 2*K)
		}
		if reints := w.grp.Member(prefIdx).Stats().Reintegrations +
			w.grp.Member(otherIdx).Stats().Reintegrations; reints < 2 {
			t.Errorf("group saw %d reintegrations, want original + retransmit", reints)
		}
		for k := 0; k < K; k++ {
			for m := 0; m < w.grp.Len(); m++ {
				got, err := w.grp.Member(m).ReadFile("work", fmt.Sprintf("f%d.txt", k))
				if err != nil || string(got) != fmt.Sprintf("draft %d", k) {
					t.Errorf("member %d f%d.txt = %q, %v", m, k, got, err)
				}
			}
		}
		if _, _, err := w.grp.Identical(); err != nil {
			t.Error(err)
		}
	})
}
