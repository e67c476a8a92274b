package integration

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/venus"
)

// TestConnectivityChurnConverges tortures one client with random link
// flapping — outages, modem periods, LAN periods — while it writes
// continuously. When the dust settles on a strong link, every surviving
// file must be byte-identical on the server, with no conflicts (single
// writer) and no duplicated applications.
func TestConnectivityChurnConverges(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := newWorld(200 + seed)
			w.srv.CreateVolume("churn")
			rng := rand.New(rand.NewSource(seed))

			w.Run(func() {
				v := w.venus("c", 1, venus.Config{
					AgingWindow:     5 * time.Second,
					TrickleInterval: 2 * time.Second,
				})
				if err := v.Mount("churn"); err != nil {
					t.Fatal(err)
				}

				// The expected final contents, maintained alongside.
				want := make(map[string][]byte)

				connected := true
				for round := 0; round < 60; round++ {
					// Flap the network.
					switch rng.Intn(4) {
					case 0: // outage
						if connected {
							w.Net.SetUp("c", "server", false)
							v.Disconnect()
							connected = false
						}
					case 1: // modem
						w.Net.SetUp("c", "server", true)
						w.Net.SetLink("c", "server", netsim.Modem.Params())
						v.Connect(9600)
						connected = true
					case 2: // LAN
						w.Net.SetUp("c", "server", true)
						w.Net.SetLink("c", "server", netsim.Ethernet.Params())
						v.Connect(10_000_000)
						connected = true
					case 3: // stay put
					}

					// Work: create, overwrite, or remove.
					name := fmt.Sprintf("/coda/churn/f%02d", rng.Intn(12))
					switch rng.Intn(5) {
					case 0, 1, 2: // write
						content := bytes.Repeat([]byte{byte(round)}, 500+rng.Intn(8000))
						if err := v.WriteFile(name, content); err == nil {
							want[name] = content
						}
					case 3: // remove
						if err := v.Remove(name); err == nil {
							delete(want, name)
						}
					case 4: // read (may miss while disconnected; fine)
						v.ReadFile(name)
					}
					w.Sim.Sleep(time.Duration(5+rng.Intn(40)) * time.Second)
				}

				// Settle: strong link, full drain.
				w.Net.SetUp("c", "server", true)
				w.Net.SetLink("c", "server", netsim.Ethernet.Params())
				v.Connect(10_000_000)
				if err := v.ForceReintegrate(); err != nil {
					t.Fatalf("final drain: %v", err)
				}
				if n := v.CMLRecords(); n != 0 {
					t.Fatalf("CML still has %d records", n)
				}
				if conflicts := v.Conflicts(); len(conflicts) != 0 {
					t.Fatalf("single-writer run produced conflicts: %+v", conflicts)
				}

				// The server must agree with the client's view exactly.
				for name, content := range want {
					rel := name[len("/coda/churn/"):]
					got, err := w.srv.ReadFile("churn", rel)
					if err != nil {
						t.Errorf("%s missing on server: %v", name, err)
						continue
					}
					if !bytes.Equal(got, content) {
						t.Errorf("%s differs: server %d bytes, want %d", name, len(got), len(content))
					}
				}
				// And nothing extra.
				names, err := v.ReadDir("/coda/churn")
				if err != nil {
					t.Fatal(err)
				}
				if len(names) != len(want) {
					t.Errorf("server has %d entries, want %d", len(names), len(want))
				}
			})
		})
	}
}
