// Package integration exercises the full stack across package boundaries:
// multiple clients sharing a server over degrading links, conflict
// matrices, equivalence of the connected and reintegration update paths,
// and the whole system running over real UDP with the real clock.
package integration

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/venus"
	"repro/internal/world"
)

// deployment is a world with one server group and the suite's client
// defaults. srv is member 0: the server of a single-server world.
type deployment struct {
	*world.World
	grp *world.Group
	srv *server.Server
}

func deploy(seed int64, addrs ...string) *deployment {
	w := world.New(seed)
	grp := w.Group(false, addrs...)
	return &deployment{World: w, grp: grp, srv: grp.Member(0)}
}

func newWorld(seed int64) *deployment { return deploy(seed, "server") }

func (w *deployment) venus(name string, id uint32, cfg venus.Config) *venus.Venus {
	cfg.ClientID = id
	if cfg.TrickleInterval == 0 {
		cfg.TrickleInterval = time.Second
	}
	return w.Client(name, w.grp, cfg)
}

// TestTwoClientsShareUpdatesViaCallbacks: classic sharing — one client
// writes, the other's cached copy is invalidated by a callback break and
// refetched.
func TestTwoClientsShareUpdatesViaCallbacks(t *testing.T) {
	w := newWorld(1)
	w.srv.CreateVolume("shared")
	w.srv.WriteFile("shared", "board.txt", []byte("round 0"))
	w.Run(func() {
		a := w.venus("alice", 1, venus.Config{})
		b := w.venus("bob", 2, venus.Config{})
		for _, v := range []*venus.Venus{a, b} {
			if err := v.Mount("shared"); err != nil {
				t.Fatal(err)
			}
		}
		for round := 1; round <= 5; round++ {
			msg := []byte(fmt.Sprintf("round %d", round))
			writer, reader := a, b
			if round%2 == 0 {
				writer, reader = b, a
			}
			if err := writer.WriteFile("/coda/shared/board.txt", msg); err != nil {
				t.Fatal(err)
			}
			w.Sim.Sleep(time.Second) // break delivery
			got, err := reader.ReadFile("/coda/shared/board.txt")
			if err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("round %d: reader saw %q, %v", round, got, err)
			}
		}
	})
}

// TestConflictMatrix drives the classic disconnected-conflict pairs and
// checks the server's verdicts: update/update conflicts, remove/update
// conflicts, create/create collisions.
func TestConflictMatrix(t *testing.T) {
	w := newWorld(2)
	w.srv.CreateVolume("v")
	w.srv.WriteFile("v", "both-edit", []byte("base"))
	w.srv.WriteFile("v", "edit-vs-remove", []byte("base"))
	w.Run(func() {
		a := w.venus("alice", 1, venus.Config{AgingWindow: time.Second})
		b := w.venus("bob", 2, venus.Config{AgingWindow: time.Second})
		for _, v := range []*venus.Venus{a, b} {
			if err := v.Mount("v"); err != nil {
				t.Fatal(err)
			}
			// Warm both caches.
			v.ReadFile("/coda/v/both-edit")
			v.ReadFile("/coda/v/edit-vs-remove")
		}

		// Both disconnect and diverge.
		w.Net.SetUp("alice", "server", false)
		w.Net.SetUp("bob", "server", false)
		a.Disconnect()
		b.Disconnect()

		must(t, a.WriteFile("/coda/v/both-edit", []byte("alice's version")))
		must(t, b.WriteFile("/coda/v/both-edit", []byte("bob's version")))
		must(t, a.WriteFile("/coda/v/edit-vs-remove", []byte("alice edits")))
		must(t, b.Remove("/coda/v/edit-vs-remove"))
		must(t, a.WriteFile("/coda/v/new-name", []byte("from alice")))
		must(t, b.WriteFile("/coda/v/new-name", []byte("from bob")))

		// Alice reconnects first: all her updates win cleanly.
		w.Net.SetUp("alice", "server", true)
		a.Connect(10_000_000)
		w.Sim.Sleep(30 * time.Second)
		if len(a.Conflicts()) != 0 {
			t.Error("first reintegrator saw conflicts")
		}
		if got, _ := w.srv.ReadFile("v", "both-edit"); string(got) != "alice's version" {
			t.Errorf("both-edit = %q", got)
		}

		// Bob reconnects: every one of his divergent updates conflicts.
		w.Net.SetUp("bob", "server", true)
		b.Connect(10_000_000)
		w.Sim.Sleep(time.Minute)
		conflicts := b.Conflicts()
		if len(conflicts) < 3 {
			t.Fatalf("bob saw %d conflicts (%+v), want ≥ 3", len(conflicts), conflicts)
		}
		// The server retains the first writer's state.
		if got, _ := w.srv.ReadFile("v", "both-edit"); string(got) != "alice's version" {
			t.Errorf("both-edit clobbered: %q", got)
		}
		if got, _ := w.srv.ReadFile("v", "edit-vs-remove"); string(got) != "alice edits" {
			t.Errorf("edit-vs-remove = %q", got)
		}
		if got, _ := w.srv.ReadFile("v", "new-name"); string(got) != "from alice" {
			t.Errorf("new-name = %q", got)
		}
		// Bob's CML must have dropped the conflicting records rather than
		// retrying them forever.
		if b.CMLRecords() != 0 {
			t.Errorf("bob's CML still has %d records", b.CMLRecords())
		}
	})
}

// TestConnectedAndReintegratedPathsEquivalent is the equivalence property:
// the same random operation sequence applied write-through (connected) and
// via disconnection+reintegration must leave identical server state.
func TestConnectedAndReintegratedPathsEquivalent(t *testing.T) {
	type op struct {
		kind int
		a, b int
		data []byte
	}
	genOps := func(rng *rand.Rand, n int) []op {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{
				kind: rng.Intn(5),
				a:    rng.Intn(6),
				b:    rng.Intn(6),
				data: bytes.Repeat([]byte{byte(rng.Intn(256))}, rng.Intn(2000)+1),
			}
		}
		return ops
	}
	apply := func(v *venus.Venus, ops []op) {
		for _, o := range ops {
			pathA := fmt.Sprintf("/coda/eq/f%d", o.a)
			pathB := fmt.Sprintf("/coda/eq/g%d", o.b)
			switch o.kind {
			case 0, 1: // writes dominate
				v.WriteFile(pathA, o.data)
			case 2:
				v.Remove(pathA) // may fail if absent; fine
			case 3:
				v.Rename(pathA, pathB) // may fail; fine
			case 4:
				v.Mkdir(fmt.Sprintf("/coda/eq/d%d", o.a))
			}
		}
	}
	snapshot := func(srv *server.Server) map[string]string {
		out := make(map[string]string)
		var walk func(rel string)
		walk = func(rel string) {
			st, err := srv.Resolve("eq", rel)
			if err != nil {
				return
			}
			_ = st
			names := []string{}
			for i := 0; i < 6; i++ {
				names = append(names, fmt.Sprintf("f%d", i), fmt.Sprintf("g%d", i), fmt.Sprintf("d%d", i))
			}
			for _, n := range names {
				child := n
				if rel != "" {
					child = rel + "/" + n
				}
				if data, err := srv.ReadFile("eq", child); err == nil {
					out[child] = string(data)
				} else if _, err := srv.Resolve("eq", child); err == nil {
					out[child] = "<dir>"
				}
			}
		}
		walk("")
		return out
	}

	for seed := int64(0); seed < 5; seed++ {
		ops := genOps(rand.New(rand.NewSource(seed)), 30)

		run := func(disconnected bool) map[string]string {
			w := newWorld(100 + seed)
			w.srv.CreateVolume("eq")
			var snap map[string]string
			w.Run(func() {
				v := w.venus("c", 1, venus.Config{AgingWindow: time.Second})
				if err := v.Mount("eq"); err != nil {
					t.Fatal(err)
				}
				if disconnected {
					w.Net.SetUp("c", "server", false)
					v.Disconnect()
					apply(v, ops)
					w.Net.SetUp("c", "server", true)
					v.Connect(10_000_000)
					w.Sim.Sleep(30 * time.Second)
					if n := v.CMLRecords(); n != 0 {
						t.Fatalf("seed %d: CML not drained (%d records)", seed, n)
					}
				} else {
					apply(v, ops)
				}
				snap = snapshot(w.srv)
			})
			return snap
		}

		connected := run(false)
		reintegrated := run(true)
		if len(connected) != len(reintegrated) {
			t.Fatalf("seed %d: %d vs %d entries\nconnected: %v\nreintegrated: %v",
				seed, len(connected), len(reintegrated), connected, reintegrated)
		}
		for k, v := range connected {
			if reintegrated[k] != v {
				t.Errorf("seed %d: %s differs: connected %d bytes, reintegrated %d bytes",
					seed, k, len(v), len(reintegrated[k]))
			}
		}
	}
}

// TestLossyWeakLinkEndToEnd runs the whole stack over a 15%-lossy modem:
// updates must still propagate exactly once.
func TestLossyWeakLinkEndToEnd(t *testing.T) {
	w := newWorld(3)
	p := netsim.Modem.Params()
	p.LossRate = 0.15
	w.srv.CreateVolume("v")
	w.Run(func() {
		v := w.venus("c", 1, venus.Config{AgingWindow: 2 * time.Second, PinWriteDisconnected: true})
		if err := v.Mount("v"); err != nil {
			t.Fatal(err)
		}
		w.Net.SetLink("c", "server", p)
		v.Connect(9600)
		content := bytes.Repeat([]byte("resilient"), 3000) // 27 KB
		must(t, v.WriteFile("/coda/v/file", content))
		w.Sim.Sleep(5 * time.Minute)
		got, err := w.srv.ReadFile("v", "file")
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("after lossy reintegration: %d bytes, %v", len(got), err)
		}
		if w.srv.Stats().RecordsApplied > 2 {
			t.Errorf("records applied %d times; retransmissions must not duplicate",
				w.srv.Stats().RecordsApplied)
		}
	})
}

// TestBandwidthCrossSection sweeps the four networks and confirms the
// update-propagation latency scales with bandwidth while foreground writes
// never block.
func TestBandwidthCrossSection(t *testing.T) {
	for _, prof := range netsim.StandardNetworks {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			w := newWorld(4)
			w.srv.CreateVolume("v")
			w.Run(func() {
				v := w.venus("c", 1, venus.Config{AgingWindow: time.Second, PinWriteDisconnected: true})
				if err := v.Mount("v"); err != nil {
					t.Fatal(err)
				}
				w.Net.SetLink("c", "server", prof.Params())
				v.Connect(prof.Bandwidth)

				start := w.Sim.Now()
				must(t, v.WriteFile("/coda/v/doc", bytes.Repeat([]byte("z"), 30_000)))
				writeLatency := w.Sim.Now().Sub(start)
				// Foreground write returns immediately at every speed.
				if writeLatency > 100*time.Millisecond {
					t.Errorf("foreground write blocked %v at %s", writeLatency, prof.Name)
				}
				w.Sim.Sleep(4 * time.Minute)
				if _, err := w.srv.ReadFile("v", "doc"); err != nil {
					t.Errorf("doc not propagated at %s: %v", prof.Name, err)
				}
			})
		})
	}
}

// TestRealUDPRealClock runs server + client over genuine UDP sockets with
// the real clock — the deployment configuration of cmd/codasrv and
// cmd/codaclient.
func TestRealUDPRealClock(t *testing.T) {
	srvConn, err := netsim.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(simtime.Real{}, srvConn)
	defer srv.Close()
	srv.CreateVolume("usr")
	srv.WriteFile("usr", "hello.txt", []byte("over real UDP"))

	cliConn, err := netsim.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	v := venus.New(simtime.Real{}, cliConn, venus.Config{
		Server:          srvConn.LocalAddr(),
		ClientID:        1,
		AgingWindow:     200 * time.Millisecond,
		TrickleInterval: 100 * time.Millisecond,
	})
	defer v.Close()

	if err := v.Mount("usr"); err != nil {
		t.Fatal(err)
	}
	data, err := v.ReadFile("/coda/usr/hello.txt")
	if err != nil || string(data) != "over real UDP" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	// Write-through while hoarding.
	if err := v.WriteFile("/coda/usr/reply.txt", []byte("ack")); err != nil {
		t.Fatal(err)
	}
	if got, err := srv.ReadFile("usr", "reply.txt"); err != nil || string(got) != "ack" {
		t.Fatalf("server reply.txt = %q, %v", got, err)
	}
	// Disconnected logging and real-time trickle reintegration.
	v.Disconnect()
	if err := v.WriteFile("/coda/usr/offline.txt", []byte("logged")); err != nil {
		t.Fatal(err)
	}
	v.Connect(10_000_000)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got, err := srv.ReadFile("usr", "offline.txt"); err == nil && string(got) == "logged" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("offline update never reintegrated over real UDP")
		}
		//codalint:ignore testhygiene polling a live UDP stack on the Real clock; no virtual time to drive
		time.Sleep(50 * time.Millisecond)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
