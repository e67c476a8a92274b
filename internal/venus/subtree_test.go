package venus_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/crashfs"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/venus"
)

func TestForceReintegrateSubtree(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{AgingWindow: time.Hour, PinWriteDisconnected: true})
		mustMount(t, v, "usr")
		v.WriteDisconnect()

		// Pending updates in two independent subtrees.
		if err := v.Mkdir("/coda/usr/thesis"); err != nil {
			t.Fatal(err)
		}
		if err := v.WriteFile("/coda/usr/thesis/ch1.tex", []byte("chapter one")); err != nil {
			t.Fatal(err)
		}
		if err := v.Mkdir("/coda/usr/scratch"); err != nil {
			t.Fatal(err)
		}
		if err := v.WriteFile("/coda/usr/scratch/junk.tmp", []byte("junk")); err != nil {
			t.Fatal(err)
		}
		before := v.CMLRecords()

		// The collaborator is waiting for the thesis, not the scratch.
		if err := v.ForceReintegrateSubtree("/coda/usr/thesis"); err != nil {
			t.Fatal(err)
		}
		if got, err := w.srv.ReadFile("usr", "thesis/ch1.tex"); err != nil || string(got) != "chapter one" {
			t.Errorf("thesis not on server: %q, %v", got, err)
		}
		if _, err := w.srv.ReadFile("usr", "scratch/junk.tmp"); err == nil {
			t.Error("unrelated subtree reintegrated too")
		}
		if after := v.CMLRecords(); after >= before {
			t.Errorf("CML %d -> %d; subtree records should be gone", before, after)
		}
		if v.CMLRecords() == 0 {
			t.Error("scratch records vanished from the CML")
		}

		// The rest still drains normally.
		if err := v.ForceReintegrate(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.srv.ReadFile("usr", "scratch/junk.tmp"); err != nil {
			t.Errorf("scratch never made it: %v", err)
		}
	})
}

func TestForceReintegrateSubtreePullsAntecedents(t *testing.T) {
	// The stored file's directory was itself created in the log; forcing
	// just the file must ship the mkdir first (precedence closure).
	w := newWorld(t)
	w.seed("usr", nil)
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{AgingWindow: time.Hour, PinWriteDisconnected: true})
		mustMount(t, v, "usr")
		v.WriteDisconnect()
		if err := v.Mkdir("/coda/usr/deep"); err != nil {
			t.Fatal(err)
		}
		if err := v.Mkdir("/coda/usr/deep/er"); err != nil {
			t.Fatal(err)
		}
		if err := v.WriteFile("/coda/usr/deep/er/file", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := v.ForceReintegrateSubtree("/coda/usr/deep/er/file"); err != nil {
			t.Fatal(err)
		}
		if got, err := w.srv.ReadFile("usr", "deep/er/file"); err != nil || string(got) != "x" {
			t.Errorf("file = %q, %v (antecedent mkdirs must have shipped)", got, err)
		}
	})
}

func TestForceReintegrateSubtreeWhileDisconnected(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{})
		mustMount(t, v, "usr")
		v.Disconnect()
		if err := v.ForceReintegrateSubtree("/coda/usr"); err != venus.ErrDisconnected {
			t.Errorf("err = %v, want ErrDisconnected", err)
		}
	})
}

// A conflict found by a forced subtree reintegration is settled the way
// the trickle path settles one: reported once, and the conflicting record
// leaves the CML and the journal, so the next force has nothing to ship
// and a reboot does not bring the record back.
func TestForceReintegrateSubtreeConflict(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"f.txt": "base"})
	mem := crashfs.NewMem()
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{ClientID: 77, AgingWindow: time.Hour, PinWriteDisconnected: true})
		mustMount(t, v, "usr")
		if _, err := v.ReadFile("/coda/usr/f.txt"); err != nil {
			t.Fatal(err)
		}
		if _, err := v.AttachJournal(venusJournalOpts(mem)); err != nil {
			t.Fatal(err)
		}
		v.WriteDisconnect()
		if err := v.WriteFile("/coda/usr/f.txt", []byte("mine")); err != nil {
			t.Fatal(err)
		}
		if _, err := w.srv.WriteFile("usr", "f.txt", []byte("theirs")); err != nil {
			t.Fatal(err)
		}

		var errs []error
		var reports, cml []int
		for attempt := 0; attempt < 3; attempt++ {
			errs = append(errs, v.ForceReintegrateSubtree("/coda/usr/f.txt"))
			reports = append(reports, len(v.Conflicts()))
			cml = append(cml, v.CMLRecords())
		}
		t.Logf("three forces: errors %v, fresh conflicts %v, CML records %v", errs, reports, cml)
		if errs[0] == nil || reports[0] != 1 || cml[0] != 0 {
			t.Errorf("first force: err %v, %d conflicts, %d CML records; want a rejection, one report, an empty CML",
				errs[0], reports[0], cml[0])
		}
		for i := 1; i < 3; i++ {
			if errs[i] != nil || reports[i] != 0 || cml[i] != 0 {
				t.Errorf("force %d: err %v, %d fresh conflicts, %d CML records; want nil, 0, 0", i+1, errs[i], reports[i], cml[i])
			}
		}
		if got, err := w.srv.ReadFile("usr", "f.txt"); err != nil || string(got) != "theirs" {
			t.Errorf("server copy = %q, %v; the conflicting store must not have applied", got, err)
		}

		v.Close()
		mem.Reboot()
		v2 := w.venus("c1b", venus.Config{ClientID: 77, AgingWindow: time.Hour})
		mustMount(t, v2, "usr")
		if _, err := v2.AttachJournal(venusJournalOpts(mem)); err != nil {
			t.Fatal(err)
		}
		if got := v2.CMLRecords(); got != 0 {
			t.Errorf("after reboot the journal restored %d CML records; the conflict's drop was not journaled", got)
		}
	})
}

// A forced subtree whose closure is one store larger than the chunk size
// runs the shared ship step: the data is pre-shipped as resumable
// fragments (§4.3.5), and with EnableDeltas a small edit to a large cached
// file ships as a delta.
func TestForceReintegrateSubtreeLargeStore(t *testing.T) {
	base := bytes.Repeat([]byte("report text "), 10_000) // 120 KB
	sim := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(sim, 11)
	net.SetDefaults(netsim.Ethernet.Params())
	reg := obs.NewRegistry(sim)
	w := &world{t: t, sim: sim, net: net, srv: server.New(sim, net.Host("server"), server.WithObs(reg))}
	w.seed("usr", map[string]string{"report.doc": string(base)})
	w.sim.Run(func() {
		v := w.venus("c1", venus.Config{AgingWindow: time.Hour, PinWriteDisconnected: true, EnableDeltas: true})
		mustMount(t, v, "usr")
		if _, err := v.ReadFile("/coda/usr/report.doc"); err != nil {
			t.Fatal(err)
		}
		w.setLink("c1", netsim.Modem)
		v.Connect(9600)
		fragments := reg.Counter("server_ops_total", obs.L("node", "server"), obs.L("op", "PutFragment"))

		big := bytes.Repeat([]byte("chunky"), 17_000) // ~100 KB >> C = 36 KB at 9.6 Kb/s
		if err := v.WriteFile("/coda/usr/big", big); err != nil {
			t.Fatal(err)
		}
		// With its create shipped, big's next store is a closure of one.
		if err := v.ForceReintegrateSubtree("/coda/usr"); err != nil {
			t.Fatal(err)
		}
		// Rewritten from scratch, so no delta is worth shipping.
		big = bytes.Repeat([]byte("lumpy!"), 17_000)
		if err := v.WriteFile("/coda/usr/big", big); err != nil {
			t.Fatal(err)
		}
		if err := v.ForceReintegrateSubtree("/coda/usr/big"); err != nil {
			t.Fatal(err)
		}
		if got, err := w.srv.ReadFile("usr", "big"); err != nil || !bytes.Equal(got, big) {
			t.Fatalf("big on the server: %d bytes, %v", len(got), err)
		}
		t.Logf("PutFragment calls at the server: %d", fragments.Value())
		if fragments.Value() < 3 {
			t.Errorf("a %d-byte store forced over a modem arrived in %d fragments; want it pre-shipped in chunk-sized pieces",
				len(big), fragments.Value())
		}

		if err := v.WriteFile("/coda/usr/report.doc", editedCopy(base, 5000, 60_000)); err != nil {
			t.Fatal(err)
		}
		if err := v.ForceReintegrateSubtree("/coda/usr/report.doc"); err != nil {
			t.Fatal(err)
		}
		if got, err := w.srv.ReadFile("usr", "report.doc"); err != nil || !bytes.Equal(got, editedCopy(base, 5000, 60_000)) {
			t.Fatalf("report.doc on the server wrong after a forced delta: %v", err)
		}
		t.Logf("delta stores: %d", v.Stats().DeltaStores)
		if got := v.Stats().DeltaStores; got != 1 {
			t.Errorf("DeltaStores = %d; a forced subtree must honour EnableDeltas", got)
		}
	})
}
