package andrew

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/venus"
	"repro/internal/world"
)

func runAt(t *testing.T, prof netsim.Profile) Result {
	t.Helper()
	w := world.New(1)
	s, net := w.Sim, w.Net
	srv := w.Group(false, "server")
	srv.CreateVolume("bench")
	var res Result
	w.Run(func() {
		v := w.Client("client", srv, venus.Config{
			ClientID:             1,
			PinWriteDisconnected: true,
			TrickleInterval:      time.Second,
		})
		if err := v.Mount("bench"); err != nil {
			t.Fatal(err)
		}
		v.WriteDisconnect()
		net.SetLink("client", "server", prof.Params())
		v.Connect(prof.Bandwidth)
		var err error
		res, err = Run(s, v, Config{Root: "/coda/bench/andrew"})
		if err != nil {
			t.Fatal(err)
		}
	})
	return res
}

func TestAndrewCompletesAllPhases(t *testing.T) {
	res := runAt(t, netsim.Ethernet)
	if res.Files != 70 {
		t.Errorf("Files = %d, want 70", res.Files)
	}
	for name, d := range map[string]time.Duration{
		"MakeDir": res.MakeDir, "Copy": res.Copy, "ScanDir": res.ScanDir,
		"ReadAll": res.ReadAll, "Make": res.Make,
	} {
		if d < 0 {
			t.Errorf("phase %s has negative duration %v", name, d)
		}
	}
	// The paper's first objection: the whole benchmark takes under three
	// minutes, far less than any reasonable aging window.
	if res.Total > 3*time.Minute {
		t.Errorf("Total = %v; the Andrew analogue should be short", res.Total)
	}
}

// TestAndrewInsensitiveToBandwidth reproduces the paper's reason for NOT
// using the Andrew benchmark to evaluate trickle reintegration: with all
// updates logged locally and no cache misses, its running time barely
// notices the network at all.
func TestAndrewInsensitiveToBandwidth(t *testing.T) {
	eth := runAt(t, netsim.Ethernet)
	modem := runAt(t, netsim.Modem)
	ratio := float64(modem.Total) / float64(eth.Total)
	if ratio > 1.10 {
		t.Errorf("modem/Ethernet = %.2f; the benchmark should be insensitive (which is why the paper rejects it)", ratio)
	}
	t.Logf("Ethernet %v vs Modem %v (ratio %.3f) — insensitive, as §6.2 argues", eth.Total, modem.Total, ratio)
}
