package server

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/wire"
)

// TestSweepReclaimsAbandonedState drives the maintenance sweep: a client
// that vanishes mid-transfer loses its fragment buffer after fragTTL,
// while a slow-but-alive client's resumable transfer survives
// arbitrarily long shipment and still reintegrates.
func TestSweepReclaimsAbandonedState(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("v")
	w.srv.WriteFile("v", "big", nil)
	w.sim.Run(func() {
		dead := w.client("dead")
		live := w.client("live")
		content := bytes.Repeat([]byte("y"), 100)
		const deadXfer, liveXfer = 1, 2
		call[wire.PutFragmentRep](t, dead, wire.PutFragment{
			Transfer: deadXfer, Offset: 0, Total: 100, Data: content[:40],
		})
		call[wire.PutFragmentRep](t, live, wire.PutFragment{
			Transfer: liveXfer, Offset: 0, Total: 100, Data: content[:40],
		})
		if got := w.srv.FragmentCount(); got != 2 {
			t.Fatalf("FragmentCount = %d, want 2", got)
		}

		// The live client trickles one byte an hour — a pathologically weak
		// link, but always inside fragTTL. The dead client never speaks
		// again.
		have := int64(40)
		for i := 0; i < 8; i++ {
			w.sim.Sleep(time.Hour)
			rep := call[wire.PutFragmentRep](t, live, wire.PutFragment{
				Transfer: liveXfer, Offset: have, Total: 100, Data: content[have : have+1],
			})
			have = rep.Received
		}

		// Eight hours in: fragTTL (6h) has passed for the dead client.
		if got := w.srv.FragmentCount(); got != 1 {
			t.Errorf("FragmentCount = %d, want 1 (dead transfer swept)", got)
		}

		// The dead client resuming where it left off is told to restart.
		rep := call[wire.PutFragmentRep](t, dead, wire.PutFragment{
			Transfer: deadXfer, Offset: 40, Total: 100, Data: content[40:60],
		})
		if rep.Received != 0 {
			t.Errorf("swept transfer resumed with Received = %d, want 0", rep.Received)
		}

		// The live transfer completes and reintegrates: the sweep never
		// touched it.
		rep = call[wire.PutFragmentRep](t, live, wire.PutFragment{
			Transfer: liveXfer, Offset: have, Total: 100, Data: content[have:],
		})
		if rep.Received != 100 {
			t.Fatalf("live transfer Received = %d, want 100", rep.Received)
		}
		st, _ := w.srv.Resolve("v", "big")
		rrep := call[wire.ReintegrateRep](t, live, wire.Reintegrate{
			Volume: st.FID.Volume,
			Records: []cml.Record{{
				Kind: cml.Store, FID: st.FID, PrevVersion: st.Version, Length: 100,
			}},
			Fragments: map[int]uint64{0: liveXfer},
		})
		if !rrep.Applied {
			t.Fatalf("live reintegration rejected: %+v", rrep.Results)
		}
		if got, _ := w.srv.ReadFile("v", "big"); !bytes.Equal(got, content) {
			t.Errorf("assembled file = %d bytes, want %d", len(got), len(content))
		}
	})
}
