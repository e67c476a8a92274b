package experiments

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// pinSeries holds a figure's registry series to the values its seeded
// quick run produced when they were pinned: each name's values, summed
// over every snapshot and label set, may not grow, and a renamed or
// unregistered series fails rather than reading as zero. The sim is
// deterministic, so there is no headroom; a change that lowers one should
// lower its pin too.
func pinSeries(t *testing.T, snaps []RegistrySnapshot, pins map[string]int64) {
	t.Helper()
	got := make(map[string]int64)
	for _, s := range snaps {
		var doc struct {
			Metrics []struct {
				Name  string
				Value int64
			}
		}
		if err := json.Unmarshal(s.Dump, &doc); err != nil {
			t.Fatalf("%s: %v", s.Label, err)
		}
		for _, m := range doc.Metrics {
			got[m.Name] += m.Value
		}
	}
	for name, want := range pins {
		if n, ok := got[name]; !ok {
			t.Errorf("%s: pinned, but in no dump", name)
		} else if n > want {
			t.Errorf("%s = %d, pinned at %d", name, n, want)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	res := Figure1(Options{Seed: 1, Quick: true})
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	get := func(proto, network string) Fig1Row {
		for _, r := range res.Rows {
			if r.Protocol == proto && r.Network.Name == network {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", proto, network)
		return Fig1Row{}
	}
	// Paper's shape: both protocols near line speed on the modem, SFTP at
	// or above TCP nearly everywhere, Ethernet ≫ WaveLan ≫ Modem.
	for _, proto := range []string{"TCP", "SFTP"} {
		e, w, m := get(proto, "Ethernet"), get(proto, "WaveLan"), get(proto, "Modem")
		if !(e.RecvKbps > w.RecvKbps && w.RecvKbps > m.RecvKbps) {
			t.Errorf("%s recv ordering broken: E=%.0f W=%.0f M=%.0f", proto, e.RecvKbps, w.RecvKbps, m.RecvKbps)
		}
		if m.RecvKbps < 5.5 || m.RecvKbps > 9.6 {
			t.Errorf("%s modem recv = %.1f Kb/s, want 5.5–9.6 (paper: 6.6-6.8)", proto, m.RecvKbps)
		}
		if e.RecvKbps < 1000 {
			t.Errorf("%s Ethernet recv = %.0f Kb/s, want ≥ 1 Mb/s", proto, e.RecvKbps)
		}
	}
	sftpE, tcpE := get("SFTP", "Ethernet"), get("TCP", "Ethernet")
	if sftpE.RecvKbps < tcpE.RecvKbps*0.85 {
		t.Errorf("SFTP Ethernet (%.0f) far below TCP (%.0f); paper has SFTP ≥ TCP",
			sftpE.RecvKbps, tcpE.RecvKbps)
	}
	// The paper's WaveLan rows: SFTP roughly doubles TCP on the lossy
	// wireless link (1152 vs 568 Kb/s). The gap only develops over full
	// 1 MB transfers; quick mode's short streams just require parity.
	sftpW, tcpW := get("SFTP", "WaveLan"), get("TCP", "WaveLan")
	need := 0.9
	if res.TransferBytes >= 1<<20 {
		need = 1.3
	}
	if sftpW.RecvKbps < tcpW.RecvKbps*need {
		t.Errorf("SFTP WaveLan (%.0f) vs TCP (%.0f): below %.1fx; paper shows ~2x at full scale",
			sftpW.RecvKbps, tcpW.RecvKbps, need)
	}
	if !strings.Contains(res.Render(), "SFTP") {
		t.Error("Render missing protocol name")
	}
	pinSeries(t, res.Snapshots, map[string]int64{"sftp_bytes_sent_total": 790032})
}

func TestFigure4Shape(t *testing.T) {
	res := Figure4(Options{Seed: 1, Quick: true})
	if len(res.Curves) == 0 {
		t.Fatal("no curves")
	}
	for _, c := range res.Curves {
		last := c.Points[len(c.Points)-1]
		if last.A != 4*time.Hour || last.Ratio < 0.999 {
			t.Errorf("%s: final point %v=%.2f, want 1.0 at 4h", c.Trace, last.A, last.Ratio)
		}
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].Ratio+1e-9 < c.Points[i-1].Ratio {
				t.Errorf("%s: ratio not monotone at %v", c.Trace, c.Points[i].A)
			}
		}
		if c.BaselineMB <= 0 {
			t.Errorf("%s: zero baseline", c.Trace)
		}
	}
	_ = res.Render()
}

func TestFigure7MatchesPaperClaims(t *testing.T) {
	res := Figure7(Options{})
	find := func(pri int, size int64) Fig7Sample {
		for _, s := range res.Samples {
			if s.Priority == pri && s.Size == size {
				return s
			}
		}
		t.Fatalf("sample %d/%d missing", pri, size)
		return Fig7Sample{}
	}
	// "At 9.6 Kb/s, only the files at priority 900 and the 1KB file at
	// priority 500 are below τ."
	for _, s := range res.Samples {
		below := s.BelowTau[9600]
		wantBelow := s.Priority == 900 || (s.Priority == 500 && s.Size == 1<<10)
		if below != wantBelow {
			t.Errorf("9.6Kb/s: P=%d size=%d below=%v, want %v", s.Priority, s.Size, below, wantBelow)
		}
	}
	// "At 64 Kb/s, the 1MB file at priority 500 is also below τ."
	if !find(500, 1<<20).BelowTau[64_000] {
		t.Error("64Kb/s: 1MB at priority 500 not below τ")
	}
	// "At 2Mb/s, all files except the 4MB and 8MB files at priority 100
	// are below τ."
	for _, s := range res.Samples {
		below := s.BelowTau[2_000_000]
		wantBelow := !(s.Priority == 100)
		if below != wantBelow {
			t.Errorf("2Mb/s: P=%d size=%d below=%v, want %v", s.Priority, s.Size, below, wantBelow)
		}
	}
	// The worked example from §4.4.4: 60 s at 64 Kb/s ≈ 480 KB.
	if got := res.Params.MaxFileSize(0, 64_000); got > 100_000 {
		t.Errorf("unhoarded max at 64Kb/s = %d, want small (τ=3s → 24KB)", got)
	}
	_ = res.Render()
}

func TestFigure8Shape(t *testing.T) {
	res := Figure8(Options{Seed: 1, Quick: true})
	cell := func(user, scheme, network string) float64 {
		for _, c := range res.Cells {
			if c.User == user && c.Scheme == scheme && c.Network.Name == network {
				return c.Seconds
			}
		}
		t.Fatalf("missing cell %s/%s/%s", user, scheme, network)
		return 0
	}
	for _, p := range res.Profiles {
		// Volume callbacks always at least as fast, dramatically so on
		// the modem.
		for _, nw := range []string{"Ethernet", "WaveLan", "ISDN", "Modem"} {
			if cell(p.User, "volume", nw) > cell(p.User, "object", nw)+0.001 {
				t.Errorf("%s/%s: volume (%.2fs) slower than object (%.2fs)",
					p.User, nw, cell(p.User, "volume", nw), cell(p.User, "object", nw))
			}
		}
		objRatio := cell(p.User, "object", "Modem") / cell(p.User, "object", "Ethernet")
		volRatio := cell(p.User, "volume", "Modem") / cell(p.User, "volume", "Ethernet")
		// At full scale the local cache walk dominates and this ratio is
		// ~1.25 (the paper's claim); quick mode's small caches leave the
		// single RTT more visible.
		limit := 2.0
		if res.Profiles[0].Objects < 1000 {
			limit = 10.0
		}
		if volRatio > limit {
			t.Errorf("%s: volume validation at modem %.1f× Ethernet; paper ≈ 1.25×", p.User, volRatio)
		}
		if objRatio < 3 {
			t.Errorf("%s: object validation at modem only %.1f× Ethernet; should blow up", p.User, objRatio)
		}
		if cell(p.User, "object", "Modem") < 5*cell(p.User, "volume", "Modem") {
			t.Errorf("%s: modem speedup from volume callbacks only %.1f×",
				p.User, cell(p.User, "object", "Modem")/cell(p.User, "volume", "Modem"))
		}
	}
	pinSeries(t, res.Snapshots, map[string]int64{
		"rpc2_calls_total":         1294,
		"sftp_window_stalls_total": 5,
	})
	_ = res.Render()
}

func TestFigure9Shape(t *testing.T) {
	res := Figure9(Options{Seed: 1, Quick: true})
	all := append(append([]Fig9Row{}, res.Desktops...), res.Laptops...)
	if len(all) != 5 {
		t.Fatalf("clients = %d, want 5 in quick mode", len(all))
	}
	for _, r := range all {
		if r.Attempts < 10 {
			t.Errorf("%s: only %d validation attempts", r.Client, r.Attempts)
		}
		if r.SuccessPct < 80 {
			t.Errorf("%s: success %.0f%%, paper is ~89-99%%", r.Client, r.SuccessPct)
		}
		if r.MissingPct > 30 {
			t.Errorf("%s: missing stamp %.0f%%, paper ≤ 13%%", r.Client, r.MissingPct)
		}
		if r.ObjsPerSuccess < 3 {
			t.Errorf("%s: objs/success = %.0f, paper 5-171", r.Client, r.ObjsPerSuccess)
		}
	}
	pinSeries(t, res.Snapshots, map[string]int64{
		"rpc2_call_timeouts_total": 16,
		"rpc2_retransmits_total":   32,
	})
	_ = res.Render()
}

func TestFigure10Shape(t *testing.T) {
	res := Figure10(Options{Seed: 1, Quick: true})
	if res.Segments < 8 {
		t.Fatalf("only %d segments qualified", res.Segments)
	}
	if res.Below20 < 0.10 || res.Below20 > 0.60 {
		t.Errorf("below-20%% fraction = %.2f, paper ≈ 1/3", res.Below20)
	}
	if res.Mid40to100 < 0.35 {
		t.Errorf("40-100%% fraction = %.2f, paper ≈ 2/3", res.Mid40to100)
	}
	_ = res.Render()
}

func TestFigure11Table(t *testing.T) {
	res := Figure11(Options{Seed: 0})
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	wantOrder := []float64{0.08, 0.32, 0.69, 0.94}
	for i, row := range res.Rows {
		if diff := row.Compressibility - wantOrder[i]; diff > 0.10 || diff < -0.10 {
			t.Errorf("%s compressibility %.2f, paper %.2f", row.Segment, row.Compressibility, wantOrder[i])
		}
		if row.OptKB <= 0 || row.UnoptKB < row.OptKB {
			t.Errorf("%s: KB columns inconsistent: unopt=%d opt=%d", row.Segment, row.UnoptKB, row.OptKB)
		}
	}
	_ = res.Render()
}

func TestFigureReplShape(t *testing.T) {
	res := FigureRepl(Options{Seed: 1, Quick: true})
	if res.SingleClientBytes == 0 || res.GroupClientBytes == 0 {
		t.Fatalf("no wire traffic measured: single=%d group=%d",
			res.SingleClientBytes, res.GroupClientBytes)
	}
	// The acceptance bound: three replicas must not cost the client's
	// link more than 2× a single server (it should be barely above 1× —
	// the client ships once and fails over, it does not multicast).
	if res.ClientRatioX100 > 200 {
		t.Errorf("client-link overhead = %d/100, want ≤ 200", res.ClientRatioX100)
	}
	// Ship traffic between members is real, so the total must exceed the
	// client link's share.
	if res.GroupTotalBytes <= res.GroupClientBytes {
		t.Errorf("group total %d ≤ client share %d; no ship traffic measured?",
			res.GroupTotalBytes, res.GroupClientBytes)
	}
	// The failure phase: the kill was survived via failover, the rebooted
	// member pulled its missed suffix, and the group converged.
	if res.Failovers == 0 {
		t.Error("no failovers despite a member kill")
	}
	if res.FailoverWaitUS == 0 {
		t.Error("failover wait not measured")
	}
	if res.CatchupRecords == 0 {
		t.Error("restarted member caught up zero records")
	}
	if !res.Identical {
		t.Error("replicas not byte-identical after recovery")
	}
	// The seeded run's values, pinned with no headroom: client-link
	// overhead above 1×, a second failover or a longer wait fails.
	for _, pin := range []struct {
		name      string
		got, want int64
	}{
		{"ClientRatioX100", res.ClientRatioX100, 100},
		{"CatchupRecords", res.CatchupRecords, 6},
		{"FailoverWaitUS", res.FailoverWaitUS, 60_000_000},
		{"Failovers", res.Failovers, 1},
	} {
		if pin.got > pin.want {
			t.Errorf("%s = %d, pinned at %d", pin.name, pin.got, pin.want)
		}
	}
	_ = res.Render()
}

func TestFigure12Insulation(t *testing.T) {
	res := Figure12(Options{Seed: 1, Quick: true})
	combo := Fig12Combo{time.Second, 600 * time.Second}
	cells := res.Cells[combo]
	if cells == nil {
		t.Fatal("missing quick combo")
	}
	for _, seg := range res.Segments {
		e := cells[seg]["Ethernet"].Mean
		m := cells[seg]["Modem"].Mean
		if e <= 0 || m <= 0 {
			t.Fatalf("%s: zero elapsed (E=%.0f M=%.0f)", seg, e, m)
		}
		// The insulation result: elapsed time almost unchanged across
		// three orders of magnitude of bandwidth (paper: ~2% mean, 11%
		// worst case).
		slowdown := m/e - 1
		if slowdown > 0.15 || slowdown < -0.15 {
			t.Errorf("%s: modem %.0fs vs Ethernet %.0fs (%.0f%%); trickle should insulate",
				seg, m, e, slowdown*100)
		}
	}

	// Figure 14 shape: on the modem, less data is shipped and more stays
	// in the CML than on Ethernet.
	for _, seg := range res.Segments {
		f := res.Fig14[seg]
		if f == nil {
			t.Fatalf("no Fig14 data for %s", seg)
		}
		eth, modem := f["Ethernet"], f["Modem"]
		if modem.ShippedKB > eth.ShippedKB+1 {
			t.Errorf("%s: modem shipped %.0fKB > Ethernet %.0fKB", seg, modem.ShippedKB, eth.ShippedKB)
		}
		if modem.EndKB+1 < eth.EndKB {
			t.Errorf("%s: modem end CML %.0fKB < Ethernet %.0fKB; should accumulate", seg, modem.EndKB, eth.EndKB)
		}
		if modem.OptimizedKB+1 < eth.OptimizedKB {
			t.Errorf("%s: modem optimized %.0fKB < Ethernet %.0fKB; longer CML residence should optimize more",
				seg, modem.OptimizedKB, eth.OptimizedKB)
		}
	}

	// Every critical-path bucket but serialization and "other" is empty on
	// these runs; a retransmit, a patience wait or an fsync on the path
	// shows up here first.
	pinSeries(t, res.Snapshots, map[string]int64{
		"experiments_fig12_critpath_failover_us":               0,
		"experiments_fig12_critpath_fragment_serialization_us": 1_175_569_312,
		"experiments_fig12_critpath_fsync_us":                  0,
		"experiments_fig12_critpath_other_us":                  21_382_922,
		"experiments_fig12_critpath_patience_wait_us":          0,
		"experiments_fig12_critpath_retransmit_us":             0,
		"experiments_fig12_critpath_server_apply_us":           0,
		"sftp_bytes_sent_total":                                33_277_630,
		"venus_shipped_bytes_total":                            4_632_870,
	})
	_ = res.Render()
}
