package server

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/crashfs"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// replWorld is a sim with n servers wired as one replica group.
type replWorld struct {
	sim  *simtime.Sim
	net  *netsim.Network
	reg  *obs.Registry
	srvs []*Server
	fids uint64 // client FIDs handed out by makeFiles
}

func replAddr(i int) string { return fmt.Sprintf("s%d", i) }

func replPeers(n, self int) []string {
	var peers []string
	for j := 0; j < n; j++ {
		if j != self {
			peers = append(peers, replAddr(j))
		}
	}
	return peers
}

func newReplWorld(n int) *replWorld {
	s := simtime.NewSim(simtime.Epoch1995)
	nw := netsim.New(s, 1)
	nw.SetDefaults(netsim.Ethernet.Params())
	w := &replWorld{sim: s, net: nw, reg: obs.NewRegistry(s)}
	for i := 0; i < n; i++ {
		w.srvs = append(w.srvs, New(s, nw.Host(replAddr(i)), WithPeers(replPeers(n, i)...), WithObs(w.reg)))
	}
	return w
}

// counter reads one of member i's obs counters.
func (w *replWorld) counter(name string, i int, labels ...obs.Label) int64 {
	return w.reg.Counter(name, append(labels, obs.L("node", replAddr(i)))...).Value()
}

// shipLogsHandled is how many ShipLog requests member i has dispatched.
func (w *replWorld) shipLogsHandled(i int) int64 {
	return w.counter("server_ops_total", i, obs.L("op", "ShipLog"))
}

// makeFiles accepts n connected-mode creates, named prefix0.., at member i.
func (w *replWorld) makeFiles(t *testing.T, c *tclient, i int, prefix string, n int) {
	t.Helper()
	gv := callTo[wire.GetVolumeRep](t, c, replAddr(i), wire.GetVolume{Name: "v"})
	for k := 0; k < n; k++ {
		w.fids++
		callTo[wire.MutateRep](t, c, replAddr(i), wire.MakeObject{
			Parent: gv.Root.FID, Name: fmt.Sprintf("%s%d", prefix, k), FID: clientFID(gv.Info.ID, w.fids),
			Type: codafs.File, Owner: "hqb",
		})
	}
}

// createVolume mirrors the volume onto every member, as codasrv does at
// boot, and checks the members agreed on its identity.
func (w *replWorld) createVolume(t *testing.T, name string) codafs.VolumeInfo {
	t.Helper()
	var info codafs.VolumeInfo
	for i, srv := range w.srvs {
		vi, err := srv.CreateVolume(name)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			info = vi
		} else if vi.ID != info.ID {
			t.Fatalf("member %d assigned ID %d, member 0 assigned %d", i, vi.ID, info.ID)
		}
	}
	return info
}

func (w *replWorld) client(name string) *tclient {
	return (&world{sim: w.sim, net: w.net}).client(name)
}

// callTo is call with an explicit member address.
func callTo[Rep any](t *testing.T, c *tclient, addr string, req any) Rep {
	t.Helper()
	rep, err := wire.Call[Rep](c.node, addr, req, rpc2.CallOpts{})
	if err != nil {
		t.Fatalf("%T to %s: %v", req, addr, err)
	}
	return rep
}

func (w *replWorld) stateOf(t *testing.T, i int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.srvs[i].SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireConverged asserts every member holds the same log position and
// byte-identical serialized state.
func (w *replWorld) requireConverged(t *testing.T) {
	t.Helper()
	base := w.srvs[0].VolumePositions()
	for i := 1; i < len(w.srvs); i++ {
		got := w.srvs[i].VolumePositions()
		if len(got) != len(base) {
			t.Fatalf("member %d has %d volumes, member 0 has %d", i, len(got), len(base))
		}
		for k := range base {
			if got[k] != base[k] {
				t.Errorf("member %d volume %s at LSN %d chain %08x; member 0 at LSN %d chain %08x",
					i, got[k].Name, got[k].LSN, got[k].Chain, base[k].LSN, base[k].Chain)
			}
		}
	}
	img0 := w.stateOf(t, 0)
	for i := 1; i < len(w.srvs); i++ {
		if !bytes.Equal(img0, w.stateOf(t, i)) {
			t.Errorf("member %d SaveState differs from member 0", i)
		}
	}
}

// TestShipLogReplicatesConnectedWrites: connected-mode mutations applied
// at one member are pushed to the others, which end at the same LSN,
// chain, and serialized state.
func TestShipLogReplicatesConnectedWrites(t *testing.T) {
	w := newReplWorld(3)
	w.createVolume(t, "v")
	w.sim.Run(func() {
		c := w.client("c1")
		gv := callTo[wire.GetVolumeRep](t, c, replAddr(0), wire.GetVolume{Name: "v"})
		mk := callTo[wire.MutateRep](t, c, replAddr(0), wire.MakeObject{
			Parent: gv.Root.FID, Name: "f.txt", FID: clientFID(gv.Info.ID, 10),
			Type: codafs.File, Owner: "hqb",
		})
		callTo[wire.MutateRep](t, c, replAddr(0), wire.StoreOp{
			FID: mk.Status.FID, Data: []byte("replicated"), PrevVersion: mk.Status.Version,
		})
		w.sim.Sleep(5 * time.Second) // let pushes drain

		for i, srv := range w.srvs {
			data, err := srv.ReadFile("v", "f.txt")
			if err != nil || string(data) != "replicated" {
				t.Errorf("member %d: ReadFile = %q, %v", i, data, err)
			}
		}
		w.requireConverged(t)
		if applied := w.srvs[1].Stats().ReplApplied; applied == 0 {
			t.Error("member 1 applied no shipped records")
		}
	})
}

// TestReintegrateDuplicateBatchIdempotent: the same CML batch delivered
// to a second member (the failover retransmit after a lost ack) is
// filtered by the (client, seq) dedup set — acked as applied, with the
// volume stamp on every member exactly where one delivery left it.
func TestReintegrateDuplicateBatchIdempotent(t *testing.T) {
	w := newReplWorld(2)
	w.createVolume(t, "v")
	w.sim.Run(func() {
		c := w.client("c1")
		gv := callTo[wire.GetVolumeRep](t, c, replAddr(0), wire.GetVolume{Name: "v"})
		recs := []cml.Record{
			{Kind: cml.Create, FID: clientFID(gv.Info.ID, 10), Parent: gv.Root.FID, Name: "notes.txt", Owner: "hqb", Seq: 1},
			{Kind: cml.Store, FID: clientFID(gv.Info.ID, 10), Data: []byte("trip notes"), Length: 10, Seq: 2},
			{Kind: cml.Mkdir, FID: clientFID(gv.Info.ID, 11), Parent: gv.Root.FID, Name: "photos", Seq: 3},
		}
		req := wire.Reintegrate{Volume: gv.Info.ID, Records: recs}
		rep1 := callTo[wire.ReintegrateRep](t, c, replAddr(0), req)
		if !rep1.Applied {
			t.Fatalf("first delivery: %+v", rep1.Results)
		}
		w.sim.Sleep(5 * time.Second) // the batch reaches member 1 by push

		stampAfterFirst, err := w.srvs[0].VolumeStamp("v")
		if err != nil {
			t.Fatal(err)
		}

		// The retransmit lands on the other member.
		rep2 := callTo[wire.ReintegrateRep](t, c, replAddr(1), req)
		if !rep2.Applied {
			t.Fatalf("duplicate batch rejected: %+v", rep2.Results)
		}
		for i, res := range rep2.Results {
			if !res.OK || !strings.Contains(res.Msg, "duplicate") {
				t.Errorf("result %d = %+v, want duplicate ack", i, res)
			}
		}
		if rep2.VolStamp != stampAfterFirst {
			t.Errorf("duplicate ack stamp = %d, want %d", rep2.VolStamp, stampAfterFirst)
		}
		if len(rep2.Statuses) == 0 {
			t.Error("duplicate ack carries no statuses; the client cannot converge versions")
		}
		for i, srv := range w.srvs {
			if stamp, _ := srv.VolumeStamp("v"); stamp != stampAfterFirst {
				t.Errorf("member %d stamp = %d after duplicate, want %d", i, stamp, stampAfterFirst)
			}
		}
		if dups := w.srvs[1].Stats().DuplicatesDropped; dups != int64(len(recs)) {
			t.Errorf("member 1 DuplicatesDropped = %d, want %d", dups, len(recs))
		}
		w.sim.Sleep(5 * time.Second)
		w.requireConverged(t)
	})
}

// TestReintegrateMixedDuplicateAndFresh: a retransmitted chunk that also
// carries records the member has not seen (the client appended to its
// CML between attempts) applies only the fresh suffix, once.
func TestReintegrateMixedDuplicateAndFresh(t *testing.T) {
	w := newReplWorld(2)
	w.createVolume(t, "v")
	w.sim.Run(func() {
		c := w.client("c1")
		gv := callTo[wire.GetVolumeRep](t, c, replAddr(0), wire.GetVolume{Name: "v"})
		first := []cml.Record{
			{Kind: cml.Create, FID: clientFID(gv.Info.ID, 10), Parent: gv.Root.FID, Name: "a.txt", Owner: "hqb", Seq: 1},
		}
		rep := callTo[wire.ReintegrateRep](t, c, replAddr(0), wire.Reintegrate{Volume: gv.Info.ID, Records: first})
		if !rep.Applied {
			t.Fatalf("first chunk: %+v", rep.Results)
		}
		w.sim.Sleep(5 * time.Second)

		mixed := []cml.Record{
			first[0],
			{Kind: cml.Create, FID: clientFID(gv.Info.ID, 11), Parent: gv.Root.FID, Name: "b.txt", Owner: "hqb", Seq: 2},
		}
		rep = callTo[wire.ReintegrateRep](t, c, replAddr(1), wire.Reintegrate{Volume: gv.Info.ID, Records: mixed})
		if !rep.Applied {
			t.Fatalf("mixed chunk: %+v", rep.Results)
		}
		if !strings.Contains(rep.Results[0].Msg, "duplicate") {
			t.Errorf("result 0 = %+v, want duplicate ack", rep.Results[0])
		}
		if !rep.Results[1].OK || strings.Contains(rep.Results[1].Msg, "duplicate") {
			t.Errorf("result 1 = %+v, want fresh apply", rep.Results[1])
		}
		w.sim.Sleep(5 * time.Second)
		for i, srv := range w.srvs {
			for _, name := range []string{"a.txt", "b.txt"} {
				if _, err := srv.Resolve("v", name); err != nil {
					t.Errorf("member %d missing %s: %v", i, name, err)
				}
			}
		}
		w.requireConverged(t)
	})
}

// TestCatchUpAfterPartition: a member cut off from its peer misses
// pushes; when the partition heals, CatchUp pulls the missed suffix and
// the members converge byte-identically.
func TestCatchUpAfterPartition(t *testing.T) {
	w := newReplWorld(2)
	w.createVolume(t, "v")
	w.sim.Run(func() {
		w.net.SetUp(replAddr(0), replAddr(1), false)
		c := w.client("c1")
		gv := callTo[wire.GetVolumeRep](t, c, replAddr(0), wire.GetVolume{Name: "v"})
		for k := 0; k < 3; k++ {
			mk := callTo[wire.MutateRep](t, c, replAddr(0), wire.MakeObject{
				Parent: gv.Root.FID, Name: fmt.Sprintf("f%d", k),
				FID: clientFID(gv.Info.ID, uint64(20+k)), Type: codafs.File, Owner: "hqb",
			})
			callTo[wire.MutateRep](t, c, replAddr(0), wire.StoreOp{
				FID: mk.Status.FID, Data: []byte(fmt.Sprintf("contents %d", k)), PrevVersion: mk.Status.Version,
			})
		}
		w.sim.Sleep(10 * time.Minute) // push attempts exhaust retries against the partition

		p0 := w.srvs[0].VolumePositions()[0]
		p1 := w.srvs[1].VolumePositions()[0]
		if p1.LSN >= p0.LSN {
			t.Fatalf("member 1 at LSN %d not behind member 0 at %d despite partition", p1.LSN, p0.LSN)
		}

		w.net.SetUp(replAddr(0), replAddr(1), true)
		if err := w.srvs[1].CatchUp(replAddr(0)); err != nil {
			t.Fatal(err)
		}
		if got := w.srvs[1].Stats().CatchupRecords; got == 0 {
			t.Error("CatchUp pulled no records")
		}
		w.sim.Sleep(5 * time.Second)
		w.requireConverged(t)
	})
}

// TestFetchLogRejectsDivergedChain: a puller whose chain disagrees at
// the requested position gets a loud divergence error, not entries.
func TestFetchLogRejectsDivergedChain(t *testing.T) {
	w := newReplWorld(2)
	w.createVolume(t, "v")
	w.sim.Run(func() {
		c := w.client("c1")
		gv := callTo[wire.GetVolumeRep](t, c, replAddr(0), wire.GetVolume{Name: "v"})
		callTo[wire.MutateRep](t, c, replAddr(0), wire.MakeObject{
			Parent: gv.Root.FID, Name: "f", FID: clientFID(gv.Info.ID, 10),
			Type: codafs.File, Owner: "hqb",
		})
		w.sim.Sleep(5 * time.Second)

		_, err := wire.Call[wire.FetchLogRep](c.node, replAddr(0), wire.FetchLog{
			Volume: gv.Info.ID, AfterLSN: 0, Chain: 0xdeadbeef,
		}, rpc2.CallOpts{})
		if err == nil || !strings.Contains(err.Error(), "diverged") {
			t.Errorf("FetchLog with wrong chain = %v, want divergence error", err)
		}
	})
}

// TestFetchLogRejectsTruncatedSuffix: after a checkpointed restart, the
// retained log begins at the checkpoint watermark; a peer asking for
// older entries is told the log cannot serve them (that is full state
// transfer territory) rather than being handed a silently incomplete
// suffix.
func TestFetchLogRejectsTruncatedSuffix(t *testing.T) {
	w := newReplWorld(2)
	mem := crashfs.NewMem()
	if _, err := w.srvs[0].AttachJournal(serverJournalOpts(mem)); err != nil {
		t.Fatal(err)
	}
	w.createVolume(t, "v")
	w.sim.Run(func() {
		c := w.client("c1")
		gv := callTo[wire.GetVolumeRep](t, c, replAddr(0), wire.GetVolume{Name: "v"})
		for k := 0; k < 2; k++ {
			callTo[wire.MutateRep](t, c, replAddr(0), wire.MakeObject{
				Parent: gv.Root.FID, Name: fmt.Sprintf("f%d", k),
				FID: clientFID(gv.Info.ID, uint64(10+k)), Type: codafs.File, Owner: "hqb",
			})
		}
		if err := w.srvs[0].Checkpoint(); err != nil {
			t.Fatal(err)
		}

		// Restart member 0 from its journal: the retained log now starts
		// at the checkpoint watermark.
		w.srvs[0].Close()
		restarted := New(w.sim, w.net.Host(replAddr(0)), WithPeers(replAddr(1)))
		if _, err := restarted.AttachJournal(serverJournalOpts(mem)); err != nil {
			t.Fatal(err)
		}
		w.srvs[0] = restarted

		_, err := wire.Call[wire.FetchLogRep](c.node, replAddr(0), wire.FetchLog{
			Volume: gv.Info.ID, AfterLSN: 0, Chain: 0,
		}, rpc2.CallOpts{})
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("FetchLog below retained base = %v, want truncation error", err)
		}
	})
}

// TestRestartedMemberCatchesUpViaFetchLog: member 1 restarts from its
// journal having missed updates, pulls the suffix from member 0, and
// converges byte-identically — the pull half of anti-entropy end to end.
func TestRestartedMemberCatchesUpViaFetchLog(t *testing.T) {
	w := newReplWorld(2)
	mem := crashfs.NewMem()
	if _, err := w.srvs[1].AttachJournal(serverJournalOpts(mem)); err != nil {
		t.Fatal(err)
	}
	w.createVolume(t, "v")
	w.sim.Run(func() {
		c := w.client("c1")
		gv := callTo[wire.GetVolumeRep](t, c, replAddr(0), wire.GetVolume{Name: "v"})
		mk := callTo[wire.MutateRep](t, c, replAddr(0), wire.MakeObject{
			Parent: gv.Root.FID, Name: "before", FID: clientFID(gv.Info.ID, 10),
			Type: codafs.File, Owner: "hqb",
		})
		w.sim.Sleep(5 * time.Second) // shipped to member 1, journaled there

		// Member 1 goes down; member 0 keeps taking writes.
		w.srvs[1].Close()
		callTo[wire.MutateRep](t, c, replAddr(0), wire.StoreOp{
			FID: mk.Status.FID, Data: []byte("while you were out"), PrevVersion: mk.Status.Version,
		})
		w.sim.Sleep(10 * time.Minute) // pushes to the dead member exhaust retries

		// Member 1 restarts from its journal and pulls what it missed.
		restarted := New(w.sim, w.net.Host(replAddr(1)), WithPeers(replAddr(0)))
		if _, err := restarted.AttachJournal(serverJournalOpts(mem)); err != nil {
			t.Fatal(err)
		}
		w.srvs[1] = restarted
		if err := restarted.CatchUp(replAddr(0)); err != nil {
			t.Fatal(err)
		}
		if restarted.Stats().CatchupRecords == 0 {
			t.Error("restarted member pulled no records")
		}
		if data, err := restarted.ReadFile("v", "before"); err != nil || string(data) != "while you were out" {
			t.Errorf("restarted member file = %q, %v", data, err)
		}
		w.sim.Sleep(5 * time.Second)
		w.requireConverged(t)
	})
}

// TestShipLogBadChainLeavesLogUntouched: a pushed entry whose chain does
// not match its records is refused as divergence before anything is
// written — log position, journal and image are as they were — and the
// genuine entry at that LSN then applies.
func TestShipLogBadChainLeavesLogUntouched(t *testing.T) {
	w := newReplWorld(2)
	mem := crashfs.NewMem()
	if _, err := w.srvs[1].AttachJournal(serverJournalOpts(mem)); err != nil {
		t.Fatal(err)
	}
	w.createVolume(t, "v")
	w.sim.Run(func() {
		c := w.client("c1")
		gv := callTo[wire.GetVolumeRep](t, c, replAddr(1), wire.GetVolume{Name: "v"})
		e := wire.LogEntry{LSN: 1, Chain: 0xdeadbeef, Client: "c1", Recs: []cml.Record{
			{Kind: cml.Create, FID: clientFID(gv.Info.ID, 10), Parent: gv.Root.FID, Name: "x", Owner: "hqb"},
		}}
		pos, writes, img := w.srvs[1].VolumePositions(), mem.Writes(), w.stateOf(t, 1)

		_, err := wire.Call[wire.ShipLogRep](c.node, replAddr(1), wire.ShipLog{Volume: gv.Info.ID, Entry: e}, rpc2.CallOpts{})
		if err == nil || !strings.Contains(err.Error(), ErrDiverged.Error()) {
			t.Fatalf("ShipLog with a wrong chain = %v, want %v", err, ErrDiverged)
		}
		if got := w.srvs[1].VolumePositions(); got[0] != pos[0] {
			t.Errorf("refused entry moved the log: %+v -> %+v", pos[0], got[0])
		}
		if got := mem.Writes(); got != writes {
			t.Errorf("refused entry reached the journal: %d writes -> %d", writes, got)
		}
		if !bytes.Equal(img, w.stateOf(t, 1)) {
			t.Error("refused entry changed the image")
		}

		e.Chain = crc32.Update(0, castagnoli, appendVolEntry(nil, e.LSN, e.Client, e.Recs))
		rep := callTo[wire.ShipLogRep](t, c, replAddr(1), wire.ShipLog{Volume: gv.Info.ID, Entry: e})
		if rep.LSN != 1 || rep.NeedCatchUp {
			t.Errorf("genuine entry answered %+v, want LSN 1 applied", rep)
		}
		if _, err := w.srvs[1].ReadFile("v", "x"); err != nil {
			t.Errorf("genuine entry did not apply: %v", err)
		}
		if got := w.srvs[1].VolumePositions()[0]; got.LSN != 1 || got.Chain != e.Chain {
			t.Errorf("after the genuine entry: %+v, want LSN 1 chain %08x", got, e.Chain)
		}
	})
}

// TestPeerlessServerRetainsNoLog: only a server with peers can be asked
// for a log suffix, so one without keeps none, and says "truncated" to a
// FetchLog below its position instead of serving it.
func TestPeerlessServerRetainsNoLog(t *testing.T) {
	w := newReplWorld(1)
	w.createVolume(t, "v")
	w.sim.Run(func() {
		c := w.client("c1")
		w.makeFiles(t, c, 0, "f", 100)
		v, _ := w.srvs[0].volByName("v")
		v.mu.Lock()
		retained, lsn, chain := len(v.repl), v.log.LSN(), v.chain
		v.mu.Unlock()
		if retained != 0 || lsn != 100 {
			t.Errorf("peerless server at LSN %d retains %d log entries, want 100 and 0", lsn, retained)
		}
		_, err := wire.Call[wire.FetchLogRep](c.node, replAddr(0), wire.FetchLog{Volume: v.id(), AfterLSN: 40}, rpc2.CallOpts{})
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("FetchLog below a peerless server's position = %v, want truncation error", err)
		}
		rep := callTo[wire.FetchLogRep](t, c, replAddr(0), wire.FetchLog{Volume: v.id(), AfterLSN: lsn, Chain: chain})
		if rep.LSN != lsn || len(rep.Entries) != 0 {
			t.Errorf("FetchLog at the tail = LSN %d with %d entries, want %d and none", rep.LSN, len(rep.Entries), lsn)
		}
	})
}

// TestEntryCrossesEachLinkOnce: an entry a member accepted from a client
// is pushed once to each peer and relayed by none of them.
func TestEntryCrossesEachLinkOnce(t *testing.T) {
	const n = 5
	w := newReplWorld(3)
	w.createVolume(t, "v")
	w.sim.Run(func() {
		w.makeFiles(t, w.client("c1"), 0, "f", n)
		w.sim.Sleep(5 * time.Second)
		if got := w.shipLogsHandled(0) + w.shipLogsHandled(1) + w.shipLogsHandled(2); got != 2*n {
			t.Errorf("%d commits at member 0 cost %d ShipLog requests group-wide (%d/%d/%d), want %d",
				n, got, w.shipLogsHandled(0), w.shipLogsHandled(1), w.shipLogsHandled(2), 2*n)
		}
		w.requireConverged(t)
	})
}

// TestReceivedEntriesAreNotRepushed: entries that arrived from a peer
// count as shipped, so a member that then accepts a write of its own
// pushes that one entry, not the suffix it was sent.
func TestReceivedEntriesAreNotRepushed(t *testing.T) {
	w := newReplWorld(3)
	w.createVolume(t, "v")
	w.sim.Run(func() {
		c := w.client("c1")
		w.makeFiles(t, c, 0, "f", 3)
		w.sim.Sleep(5 * time.Second)
		w.makeFiles(t, c, 1, "g", 1)
		w.sim.Sleep(5 * time.Second)
		if got := w.counter("server_repl_shipped_entries_total", 1); got != 2 {
			t.Errorf("member 1 pushed %d entries for one commit of its own, want one to each of 2 peers", got)
		}
		if s0, s2 := w.shipLogsHandled(0), w.shipLogsHandled(2); s0 != 1 || s2 != 4 {
			t.Errorf("ShipLog requests handled: member 0 %d, member 2 %d; want 1 and 4", s0, s2)
		}
		w.requireConverged(t)
	})
}

// partialPartition cuts the s0<->s2 link, commits three entries at member
// 0 and lets the pushes settle: member 1 is level and member 2 lags — no
// third member relays — until the link, healed on return, lets a repair
// path run. Call inside the sim.
func (w *replWorld) partialPartition(t *testing.T, c *tclient) {
	t.Helper()
	w.net.SetUp(replAddr(0), replAddr(2), false)
	w.makeFiles(t, c, 0, "f", 3)
	w.sim.Sleep(10 * time.Minute) // pushes to member 2 exhaust their retries
	pos := func(i int) VolumePosition { return w.srvs[i].VolumePositions()[0] }
	if pos(1) != pos(0) || pos(2).LSN != 0 {
		t.Fatalf("behind a cut s0<->s2 link: member 0 %+v, member 1 %+v, member 2 %+v; want 1 level and 2 at LSN 0",
			pos(0), pos(1), pos(2))
	}
	w.net.SetUp(replAddr(0), replAddr(2), true)
}

// TestPartialPartitionRepairsByGapPull: the next push after the link
// heals finds a gap at the lagging member, which pulls what it missed
// from the shipper.
func TestPartialPartitionRepairsByGapPull(t *testing.T) {
	w := newReplWorld(3)
	w.createVolume(t, "v")
	w.sim.Run(func() {
		c := w.client("c1")
		w.partialPartition(t, c)
		w.makeFiles(t, c, 0, "g", 1)
		w.sim.Sleep(5 * time.Second)
		if gaps := w.counter("server_repl_gaps_total", 2); gaps != 1 {
			t.Errorf("member 2 saw %d gaps, want 1", gaps)
		}
		if got := w.srvs[2].Stats().CatchupRecords; got != 4 {
			t.Errorf("member 2 pulled %d records, want 4: the 3 it missed and the one whose push found the gap", got)
		}
		w.requireConverged(t)
	})
}

// TestPartialPartitionRepairsByCatchUp: with no new commit to reveal the
// gap, CatchUp levels the lagging member — from any member that has the
// suffix, here the one whose link to it never went down.
func TestPartialPartitionRepairsByCatchUp(t *testing.T) {
	w := newReplWorld(3)
	w.createVolume(t, "v")
	w.sim.Run(func() {
		w.partialPartition(t, w.client("c1"))
		if err := w.srvs[2].CatchUp(replAddr(1)); err != nil {
			t.Fatal(err)
		}
		if gaps := w.counter("server_repl_gaps_total", 2); gaps != 0 {
			t.Errorf("member 2 saw %d gaps, want none without a new commit", gaps)
		}
		w.requireConverged(t)
	})
}
