package integration

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/venus"
	"repro/internal/world"
)

// TestTraceTreeWeakLinkFailover pins the parent/child structure of one
// traced weak-link reintegration that fails over mid-batch: the client
// logs a batch disconnected, reconnects against a two-member journaled
// group, and the preferred member's return path dies — the request
// executes there but the ack vanishes, so the client waits out the
// failover and retransmits to the second member. Every layer the batch
// crosses must hang off the single venus_reintegrate root:
//
//	venus_reintegrate (laptop)
//	├── venus_failover_wait (laptop)           — the abandoned attempt
//	└── rpc2_call (laptop)                     — per member tried
//	    └── server_apply (srvN)                — crossed the wire
//	        └── wal_append (srvN)
//	            └── wal_fsync (srvN)           — SyncEachRecord
func TestTraceTreeWeakLinkFailover(t *testing.T) {
	w := world.New(9)
	s, n, reg := w.Sim, w.Net, w.Reg
	grp := w.Group(true, "srv0", "srv1")
	info, err := grp.CreateVolume("work")
	if err != nil {
		t.Fatal(err)
	}
	pref := grp.Addrs()[int(uint64(info.ID)%uint64(grp.Len()))]

	w.Run(func() {
		v := w.Client("laptop", grp, venus.Config{
			ClientID:        1,
			AgingWindow:     time.Minute,
			TrickleInterval: time.Second,
		})
		if err := v.Mount("work"); err != nil {
			t.Fatal(err)
		}
		v.Disconnect()
		if err := v.WriteFile("/coda/work/f0.txt", []byte("draft")); err != nil {
			t.Fatal(err)
		}
		v.Connect(0)
		s.Sleep(5 * time.Second)
		if n := v.CMLRecords(); n == 0 {
			t.Fatal("CML drained before the ack path was cut; raise AgingWindow")
		}
		n.ConfigureOneWay(pref, "laptop", func(p *netsim.LinkParams) { p.Up = false })
		deadline := s.Now().Add(30 * time.Minute)
		for v.CMLRecords() > 0 && s.Now().Before(deadline) {
			s.Sleep(10 * time.Second)
		}
		if n := v.CMLRecords(); n != 0 {
			t.Fatalf("CML still holds %d records after failover window", n)
		}
		if v.Stats().Failovers == 0 {
			t.Fatal("no failover despite dead return path")
		}
	})

	spans := reg.Spans()
	if reg.DroppedSpans() != 0 {
		t.Fatalf("span table dropped %d spans", reg.DroppedSpans())
	}
	byID := map[uint64]obs.Span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	parentName := func(sp obs.Span) string {
		if sp.Parent == 0 {
			return ""
		}
		p, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("span %s (trace %d) has unknown parent %d", sp.Name, sp.Trace, sp.Parent)
		}
		return p.Name
	}

	// Locate the reintegration that carried the batch across: the
	// venus_reintegrate trace holding a server_apply. The whole chain
	// below pins who may parent whom, layer by layer.
	counts := map[string]int{}
	var batchTrace uint64
	for _, sp := range spans {
		if sp.Name == "server_apply" {
			root, ok := byID[sp.Trace]
			if !ok || root.Name != "venus_reintegrate" {
				continue
			}
			batchTrace = sp.Trace
		}
	}
	if batchTrace == 0 {
		t.Fatal("no server_apply recorded under a venus_reintegrate trace")
	}
	for _, sp := range spans {
		if sp.Trace != batchTrace {
			continue
		}
		counts[sp.Name]++
		switch sp.Name {
		case "venus_reintegrate":
			if sp.Parent != 0 {
				t.Errorf("venus_reintegrate has parent %q, want root", parentName(sp))
			}
			if sp.Node != "laptop" {
				t.Errorf("venus_reintegrate on node %q, want laptop", sp.Node)
			}
		case "venus_failover_wait":
			if got := parentName(sp); got != "venus_reintegrate" {
				t.Errorf("venus_failover_wait parent = %q, want venus_reintegrate", got)
			}
			if sp.Node != "laptop" {
				t.Errorf("venus_failover_wait on node %q, want laptop", sp.Node)
			}
		case "rpc2_call":
			// The client's reintegration RPCs hang off the root; the
			// servers' own ShipLog anti-entropy RPCs hang off their
			// server_ship_log spans, still inside the same trace.
			if got := parentName(sp); got != "venus_reintegrate" && got != "server_ship_log" {
				t.Errorf("rpc2_call parent = %q, want venus_reintegrate or server_ship_log", got)
			}
		case "rpc2_retransmit_wait":
			if got := parentName(sp); got != "rpc2_call" {
				t.Errorf("rpc2_retransmit_wait parent = %q, want rpc2_call", got)
			}
		case "server_apply":
			if got := parentName(sp); got != "rpc2_call" {
				t.Errorf("server_apply parent = %q, want rpc2_call", got)
			}
			if !strings.HasPrefix(sp.Node, "srv") {
				t.Errorf("server_apply on node %q, want a group member", sp.Node)
			}
		case "wal_append":
			if got := parentName(sp); got != "server_apply" {
				t.Errorf("wal_append parent = %q, want server_apply", got)
			}
		case "wal_fsync":
			if got := parentName(sp); got != "wal_append" {
				t.Errorf("wal_fsync parent = %q, want wal_append", got)
			}
		case "server_ship_log":
			if got := parentName(sp); got != "rpc2_call" && got != "server_ship_log" {
				t.Errorf("server_ship_log parent = %q, want rpc2_call", got)
			}
		}
	}

	// The tree must contain every layer exactly as the failover story
	// tells it: one root, at least one abandoned attempt, both deliveries
	// applied and journaled durably.
	if counts["venus_reintegrate"] != 1 {
		t.Errorf("trace holds %d venus_reintegrate roots, want 1", counts["venus_reintegrate"])
	}
	if counts["venus_failover_wait"] < 1 {
		t.Error("no venus_failover_wait span in the batch trace")
	}
	for _, name := range []string{"rpc2_call", "server_apply", "wal_append", "wal_fsync"} {
		if counts[name] < 1 {
			t.Errorf("no %s span in the batch trace (counts: %v)", name, counts)
		}
	}
	if counts["server_apply"] < 2 {
		t.Errorf("trace holds %d server_apply spans, want original + failover retransmit", counts["server_apply"])
	}
}
