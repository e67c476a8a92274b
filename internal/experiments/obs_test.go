package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"testing"

	"repro/internal/codafs"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/venus"
)

// TestRegistryDumpDeterministic pins the observability contract: two runs
// of the same seeded scenario produce byte-identical registry dumps —
// counters, histograms and gauge evaluations included.
func TestRegistryDumpDeterministic(t *testing.T) {
	opts := Options{Seed: 7, Quick: true}
	prof := Fig8Profile{User: "det", Volumes: 3, Objects: 60, MeanKB: 4}
	_, first := fig8Run(opts, prof, "volume")
	_, second := fig8Run(opts, prof, "volume")
	if !bytes.Equal(first.Dump, second.Dump) {
		t.Fatalf("identical runs produced different dumps:\n--- first ---\n%s\n--- second ---\n%s",
			first.Dump, second.Dump)
	}
	// The scenario exercises every instrumented layer; its dump must
	// carry series from each of them.
	for _, name := range []string{
		"venus_cache_hits_total",
		"venus_state_transitions_total",
		"venus_hoard_phase_us",
		"server_ops_total",
		"rpc2_calls_total",
		"netmon_peer_bandwidth_bps",
	} {
		if !bytes.Contains(first.Dump, []byte(name)) {
			t.Errorf("dump is missing %s", name)
		}
	}
}

// TestFig8ValidationRPCCounts re-asserts Figure 8's volume-callback win
// with exact metric counts: reconnection validation drops from one
// per-object check for every cached object (batched 50 to an RPC) to a
// single ValidateVolumes RPC carrying one stamp per volume.
func TestFig8ValidationRPCCounts(t *testing.T) {
	const volumes = 3
	run := func(scheme string) (*obs.Registry, int) {
		w := newWorld(11)
		for vi := 0; vi < volumes; vi++ {
			vol := fmt.Sprintf("val%d", vi)
			w.mustVol(vol)
			for fi := 0; fi < 40; fi++ {
				w.mustWrite(vol, fmt.Sprintf("d%d/f%02d", fi%2, fi), make([]byte, 512))
			}
		}
		var cached int
		w.Run(func() {
			v := w.venus("client", venus.Config{
				ClientID:               1,
				CacheBytes:             1 << 30,
				DisableVolumeCallbacks: scheme == "object",
			})
			for vi := 0; vi < volumes; vi++ {
				vol := fmt.Sprintf("val%d", vi)
				if err := v.Mount(vol); err != nil {
					panic(err)
				}
				v.HoardAdd(codafs.JoinPath(vol), 600, true)
			}
			if err := v.HoardWalk(); err != nil {
				panic(err)
			}
			cached = v.CacheStats().Objects
			w.Net.SetUp("client", "server", false)
			v.Disconnect()
			w.setLink("client", netsim.Modem)
			v.Connect(netsim.Modem.Bandwidth)
			if scheme == "object" {
				if err := v.HoardWalk(); err != nil {
					panic(err)
				}
			}
		})
		return w.Reg, cached
	}

	serverOp := func(reg *obs.Registry, op string) int64 {
		return reg.Counter("server_ops_total", obs.L("node", "server"), obs.L("op", op)).Value()
	}
	// The validation counts are Venus's Stats fields, which the registry
	// reads through CounterFunc: a Counter handle on them would collide,
	// so read them from the dump.
	clientVal := func(reg *obs.Registry, kind string) int64 {
		return dumpSeries(t, reg, "venus_validations_total", map[string]string{"client": "client", "kind": kind})
	}

	// Volume-stamp scheme: 1 RPC, k stamp validations, zero per-object
	// traffic.
	volReg, _ := run("volume")
	if got := serverOp(volReg, "ValidateVolumes"); got != 1 {
		t.Errorf("volume scheme: ValidateVolumes RPCs = %d, want 1", got)
	}
	if got := serverOp(volReg, "ValidateObjects"); got != 0 {
		t.Errorf("volume scheme: ValidateObjects RPCs = %d, want 0", got)
	}
	if got := clientVal(volReg, "volume"); got != volumes {
		t.Errorf("volume scheme: volume validations = %d, want %d", got, volumes)
	}
	if got := clientVal(volReg, "object"); got != 0 {
		t.Errorf("volume scheme: object validations = %d, want 0", got)
	}
	ok := dumpSeries(t, volReg, "venus_volume_validations_ok_total", map[string]string{"client": "client"})
	if ok != volumes {
		t.Errorf("volume scheme: successful stamp validations = %d, want %d", ok, volumes)
	}

	// Per-object scheme (the paper's baseline): every cached object is
	// validated individually, batched 50 to an RPC.
	objReg, cached := run("object")
	if cached == 0 {
		t.Fatal("no cached objects after the hoard walk")
	}
	wantRPCs := int64((cached + 49) / 50)
	if got := serverOp(objReg, "ValidateObjects"); got != wantRPCs {
		t.Errorf("object scheme: ValidateObjects RPCs = %d, want ceil(%d/50) = %d", got, cached, wantRPCs)
	}
	if got := serverOp(objReg, "ValidateVolumes"); got != 0 {
		t.Errorf("object scheme: ValidateVolumes RPCs = %d, want 0", got)
	}
	if got := clientVal(objReg, "object"); got != int64(cached) {
		t.Errorf("object scheme: object validations = %d, want %d (every cached object)", got, cached)
	}
}

// dumpSeries reads the value of the series with exactly this name and
// label set from reg's dump; a series absent from the dump fails the test.
func dumpSeries(t *testing.T, reg *obs.Registry, name string, labels map[string]string) int64 {
	t.Helper()
	var doc struct {
		Metrics []struct {
			Name   string
			Labels map[string]string
			Value  int64
		}
	}
	if err := json.Unmarshal(reg.Dump(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.Metrics {
		if m.Name == name && maps.Equal(m.Labels, labels) {
			return m.Value
		}
	}
	t.Fatalf("no series %s%v in the dump", name, labels)
	return 0
}
