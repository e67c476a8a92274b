package world

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/venus"
)

// series reads every series in w's registry dump, keyed
// name{k=v,...} with the labels in key order.
func series(t *testing.T, w *World) map[string]int64 {
	t.Helper()
	var doc struct {
		Metrics []struct {
			Name   string
			Labels map[string]string
			Value  int64
		}
	}
	if err := json.Unmarshal(w.Reg.Dump(), &doc); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(doc.Metrics))
	for _, m := range doc.Metrics {
		out[seriesKey(m.Name, m.Labels)] = m.Value
	}
	return out
}

func seriesKey(name string, labels map[string]string) string {
	pairs := make([]string, 0, len(labels))
	for k, v := range labels {
		pairs = append(pairs, k+"="+v)
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// A seriesRef names one registry series: a metric and the labels it carries
// beyond its owner's (client or node) label.
type seriesRef struct {
	name   string
	labels map[string]string
}

// venusSeries maps each venus.Stats count to the series that reads it.
var venusSeries = map[string]seriesRef{
	"VolValidations":        {"venus_validations_total", map[string]string{"kind": "volume"}},
	"VolValidationsOK":      {"venus_volume_validations_ok_total", nil},
	"ObjsSavedByVolume":     {"venus_objs_saved_by_volume_total", nil},
	"MissingStamp":          {"venus_missing_stamp_total", nil},
	"ObjValidations":        {"venus_validations_total", map[string]string{"kind": "object"}},
	"TransparentFetches":    {"venus_miss_verdicts_total", map[string]string{"verdict": "transparent"}},
	"DeferredMisses":        {"venus_miss_verdicts_total", map[string]string{"verdict": "deferred"}},
	"DisconnectedMisses":    {"venus_miss_verdicts_total", map[string]string{"verdict": "disconnected"}},
	"ShippedBytes":          {"venus_shipped_bytes_total", nil},
	"ShippedRecords":        {"venus_shipped_records_total", nil},
	"Reintegrations":        {"venus_reintegrations_total", nil},
	"ReintegrationFailures": {"venus_reintegration_failures_total", nil},
	"DeltaStores":           {"venus_delta_stores_total", nil},
	"DeltaSavedBytes":       {"venus_delta_saved_bytes_total", nil},
	"Failovers":             {"venus_failovers_total", nil},
}

// serverSeries maps each server.Stats count to the series that reads it.
var serverSeries = map[string]seriesRef{
	"Calls":              {"server_calls_total", nil},
	"Reintegrations":     {"server_reintegrations_total", nil},
	"ReintegrationFails": {"server_reintegration_failures_total", nil},
	"RecordsApplied":     {"server_records_applied_total", nil},
	"Conflicts":          {"server_conflicts_total", nil},
	"BreaksSent":         {"server_callback_breaks_total", nil},
	"DuplicatesDropped":  {"server_repl_duplicate_records_total", nil},
	"ReplApplied":        {"server_repl_applied_records_total", nil},
	"CatchupRecords":     {"server_catchup_records_total", nil},
}

// zeroOnPurpose lists the counts the run below does not drive, and why.
var zeroOnPurpose = map[string]string{
	// Needs a reintegration reply lost after the member applied the
	// chunk; the failover here happens before the member is reached.
	"DuplicatesDropped": "no retransmit of an applied chunk",
}

// checkStats compares every int64 field of stats (a venus.Stats or
// server.Stats) with the series table names for it under the owner
// label (key, value), and returns the fields that were nonzero.
func checkStats(t *testing.T, got map[string]int64, owner [2]string, stats any, table map[string]seriesRef) (nonzero []string) {
	t.Helper()
	sv := reflect.ValueOf(stats)
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		s, ok := table[f.Name]
		if !ok {
			t.Errorf("%s.%s has no registry series in the table", sv.Type(), f.Name)
			continue
		}
		labels := map[string]string{owner[0]: owner[1]}
		for k, v := range s.labels {
			labels[k] = v
		}
		key := seriesKey(s.name, labels)
		n, ok := got[key]
		if !ok {
			t.Errorf("%s is in no dump", key)
		}
		if want := sv.Field(i).Int(); n != want {
			t.Errorf("%s = %d, but Stats().%s = %d", key, n, f.Name, want)
		}
		if n != 0 {
			nonzero = append(nonzero, f.Name)
		}
	}
	return nonzero
}

// TestStatsAreTheRegistrySeries: each Stats count is kept once, by its
// owner, and the registry reads that same field. One world drives every
// Venus and server count but the ones zeroOnPurpose names — a deferred
// and a transparent miss, a disconnected miss, a volume callback lost
// and one kept, a conflict, a delta store, a failover and a restarted
// member's catch-up — then every client's and member's Stats must equal
// its series, and each count must be nonzero somewhere, so a series
// reading the wrong field cannot pass.
func TestStatsAreTheRegistrySeries(t *testing.T) {
	w := New(5)
	g, pref := trio(t, w, true)
	addrs := g.Addrs()
	doc := bytes.Repeat([]byte("delta base line\n"), 512)
	w.Run(func() {
		laptop := w.Client("laptop", g, venus.Config{ClientID: 1, EnableDeltas: true,
			AgingWindow: time.Second, TrickleInterval: time.Second})
		desk := w.Client("desk", g, venus.Config{ClientID: 2})
		for _, m := range []struct {
			v   *venus.Venus
			vol string
		}{{laptop, "work"}, {laptop, "spare"}, {desk, "work"}, {desk, "spare"}} {
			if err := m.v.Mount(m.vol); err != nil {
				t.Fatal(err)
			}
		}
		// The desk seeds the files: a client's writes are journaled, so a
		// restarted member recovers them (the group's administrative
		// writes are not).
		for _, f := range []struct {
			path string
			data []byte
		}{
			{"work/shared.txt", []byte("base")}, {"work/doc.txt", doc}, {"work/stable.txt", []byte("same")},
			{"work/small.txt", []byte("tiny")}, {"work/big.bin", make([]byte, 64<<10)}, {"spare/kept.txt", []byte("kept")},
		} {
			if err := desk.WriteFile("/coda/"+f.path, f.data); err != nil {
				t.Fatal(err)
			}
		}
		w.Sim.Sleep(10 * time.Second) // the ships to the peers land
		for _, p := range []string{"work/shared.txt", "work/doc.txt", "work/stable.txt", "spare/kept.txt"} {
			if _, err := laptop.ReadFile("/coda/" + p); err != nil {
				t.Fatal(err)
			}
		}
		if err := laptop.HoardWalk(); err != nil { // caches both volume stamps
			t.Fatal(err)
		}
		if _, err := desk.ReadFile("/coda/work/shared.txt"); err != nil {
			t.Fatal(err)
		}

		laptop.Disconnect()
		var miss *venus.MissError
		if _, err := laptop.ReadFile("/coda/work/small.txt"); !errors.As(err, &miss) {
			t.Fatalf("uncached read while emulating = %v, want a miss", err)
		}
		edited := append(bytes.Clone(doc[:len(doc)-4]), "edit"...)
		for _, f := range []struct {
			path string
			data []byte
		}{{"doc.txt", edited}, {"shared.txt", []byte("mine")}, {"new.txt", []byte("new")}} {
			if err := laptop.WriteFile("/coda/work/"+f.path, f.data); err != nil {
				t.Fatal(err)
			}
		}
		// A connected write: it breaks the laptop's callbacks on shared.txt
		// and on the work volume, and wins the race for shared.txt.
		if err := desk.WriteFile("/coda/work/shared.txt", []byte("theirs")); err != nil {
			t.Fatal(err)
		}
		w.Sim.Sleep(time.Second)

		laptop.Connect(0) // spare's stamp validates; work's was broken
		if _, err := laptop.ReadFile("/coda/work/small.txt"); err != nil {
			t.Fatalf("transparent fetch: %v", err)
		}
		if _, err := laptop.ReadFile("/coda/work/stable.txt"); err != nil {
			t.Fatalf("suspect revalidation: %v", err)
		}
		laptop.Connect(9600)     // a modem-speed estimate defers the big miss
		for k := 0; k < 2; k++ { // twice, so no two verdict counts are equal
			if _, err := laptop.ReadFile("/coda/work/big.bin"); !errors.As(err, &miss) {
				t.Fatalf("big read at modem speed = %v, want a deferred miss", err)
			}
		}
		drain(t, w, laptop)
		// Volume IDs are consecutive, so spare's preferred member is the
		// one after work's. Killing it (not the member that saw the
		// conflict) makes the next spare call fail over.
		victim := (pref + 1) % 3
		g.Kill(victim)
		if err := laptop.WriteFile("/coda/spare/after.txt", []byte("after")); err != nil {
			t.Fatal(err)
		}
		drain(t, w, laptop)
		if err := g.Restart(victim, addrs[pref]); err != nil {
			t.Fatal(err)
		}
		if err := g.Converge(); err != nil {
			t.Fatal(err)
		}

		got := series(t, w)
		nonzero := make(map[string]bool) // "venus."/"server." + field
		states := []venus.State{venus.Hoarding, venus.Emulating, venus.WriteDisconnected}
		edges := 0
		for _, v := range []*venus.Venus{laptop, desk} {
			st := v.Stats()
			for _, f := range checkStats(t, got, [2]string{"client", v.Addr()}, st, venusSeries) {
				nonzero["venus."+f] = true
			}
			for _, from := range states {
				for _, to := range states {
					if from == to {
						continue
					}
					key := seriesKey("venus_state_transitions_total",
						map[string]string{"client": v.Addr(), "from": from.String(), "to": to.String()})
					if n, want := got[key], st.Transitions[from.String()+"->"+to.String()]; n != want {
						t.Errorf("%s = %d, but Stats().Transitions says %d", key, n, want)
					} else if n != 0 {
						edges++
					}
				}
			}
		}
		for i, addr := range addrs {
			for _, f := range checkStats(t, got, [2]string{"node", addr}, g.Member(i).Stats(), serverSeries) {
				nonzero["server."+f] = true
			}
		}
		for prefix, table := range map[string]map[string]seriesRef{"venus.": venusSeries, "server.": serverSeries} {
			for field := range table {
				if !nonzero[prefix+field] && zeroOnPurpose[field] == "" {
					t.Errorf("%s%s is zero everywhere: the run no longer checks its series", prefix, field)
				}
			}
		}
		if edges < 2 {
			t.Errorf("%d transition edges taken, want at least 2", edges)
		}
	})
}

// drain waits for v's CML to empty.
func drain(t *testing.T, w *World, v *venus.Venus) {
	t.Helper()
	for deadline := w.Sim.Now().Add(time.Hour); v.CMLRecords() > 0 && w.Sim.Now().Before(deadline); {
		w.Sim.Sleep(time.Second)
	}
	if n := v.CMLRecords(); n != 0 {
		t.Fatalf("CML still holds %d records", n)
	}
}

// TestRestartResetsServerSeries pins the counter-reset convention: a
// restarted member re-registers its Stats counts, so its server_*_total
// series read the new process from then on, not the dead one.
func TestRestartResetsServerSeries(t *testing.T) {
	w := New(6)
	g, pref := trio(t, w, true)
	victim := (pref + 1) % 3
	addr := g.Addrs()[victim]
	w.Run(func() {
		v := mount(t, w, g)
		write(t, w, v, 0, 3)
		before := g.Member(victim).Stats()
		if err := g.Restart(victim, g.Addrs()[pref]); err != nil {
			t.Fatal(err)
		}
		fresh := g.Member(victim).Stats()
		if fresh.Calls >= before.Calls {
			t.Fatalf("fresh process made %d calls, the old one %d: no restart to observe", fresh.Calls, before.Calls)
		}
		checkStats(t, series(t, w), [2]string{"node", addr}, fresh, serverSeries)
	})
}

// TestLagGaugeFollowsRestart: group_replica_lag_entries reads the member
// that holds the address now, so after a restart and anti-entropy every
// member's gauge is zero — not the dead process's frozen position.
func TestLagGaugeFollowsRestart(t *testing.T) {
	w := New(4)
	g, pref := trio(t, w, true)
	victim := (pref + 1) % 3
	w.Run(func() {
		v := mount(t, w, g)
		g.Kill(victim)
		write(t, w, v, 0, 3)
		if err := g.Restart(victim, g.Addrs()[pref]); err != nil {
			t.Fatal(err)
		}
		if err := g.Converge(); err != nil {
			t.Fatal(err)
		}
		write(t, w, v, 1, 2)
		if _, _, err := g.Identical(); err != nil {
			t.Fatal(err)
		}
		got := series(t, w)
		for _, addr := range g.Addrs() {
			key := seriesKey("group_replica_lag_entries", map[string]string{"node": addr})
			if n, ok := got[key]; !ok || n != 0 {
				t.Errorf("%s = %d (present %v), want 0 after Converge", key, n, ok)
			}
		}
	})
}
