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
// of the same seeded experiments in one process produce byte-identical
// output - every figure that keeps registry snapshots (1, 8, 9, 12; Quick,
// one trial) and FigureRepl, their tables and their dumps, counters,
// histograms and gauge evaluations included. A map-order leak on any
// path these worlds run (one server update breaking callbacks at several
// clients, in Figure 9) shows up as two runs that differ. Figure 9 runs
// at two seeds: the order of the server's breaks shows at seed 0, the
// order of a Venus's per-volume calls at seed 7.
func TestRegistryDumpDeterministic(t *testing.T) {
	opts := Options{Seed: 7, Quick: true, Trials: 1}
	seed0 := Options{Seed: 0, Quick: true, Trials: 1}
	figures := []struct {
		name string
		run  func() (string, ObsSnapshots)
	}{
		{"Figure1", func() (string, ObsSnapshots) { r := Figure1(opts); return r.Render(), r.ObsSnapshots }},
		{"Figure8", func() (string, ObsSnapshots) { r := Figure8(opts); return r.Render(), r.ObsSnapshots }},
		{"Figure9", func() (string, ObsSnapshots) { r := Figure9(opts); return r.Render(), r.ObsSnapshots }},
		{"Figure9, seed 0", func() (string, ObsSnapshots) { r := Figure9(seed0); return r.Render(), r.ObsSnapshots }},
		{"Figure12", func() (string, ObsSnapshots) { r := Figure12(opts); return r.Render(), r.ObsSnapshots }},
		{"FigureRepl", func() (string, ObsSnapshots) { return FigureRepl(opts).Render(), ObsSnapshots{} }},
	}
	output := func(run func() (string, ObsSnapshots)) []byte {
		table, snaps := run()
		var b bytes.Buffer
		b.WriteString(table)
		for _, s := range snaps.Snapshots {
			fmt.Fprintf(&b, "--- %s\n%s\n", s.Label, s.Dump)
		}
		return b.Bytes()
	}
	var fig8 []byte
	for _, f := range figures {
		first, second := output(f.run), output(f.run)
		if !bytes.Equal(first, second) {
			t.Errorf("%s: identical runs differ: %s", f.name, firstLineDiff(first, second))
		}
		if f.name == "Figure8" {
			fig8 = first
		}
	}
	// The Figure 8 worlds exercise every instrumented layer; their dumps
	// must carry series from each of them.
	for _, name := range []string{
		"venus_cache_hits_total",
		"venus_state_transitions_total",
		"venus_hoard_phase_us",
		"server_ops_total",
		"rpc2_calls_total",
		"netmon_peer_bandwidth_bps",
	} {
		if !bytes.Contains(fig8, []byte(name)) {
			t.Errorf("Figure 8 dumps are missing %s", name)
		}
	}
}

// firstLineDiff names the first line at which a and b differ.
func firstLineDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(la), len(lb))
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
