package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/obs"
)

// dumpSeries is one time series of obs.Registry.Dump(). Counters are read
// from the dump, never through registry handles, so the program's metric
// names stay owned by the packages that register them.
type dumpSeries struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Value  int64   `json:"value"`
	Le     []int64 `json:"le"`
	Counts []int64 `json:"counts"`
}

type dump []dumpSeries

func parseDump(b []byte) (dump, error) {
	var doc struct {
		Metrics dump `json:"metrics"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("parse registry dump: %w", err)
	}
	return doc.Metrics, nil
}

// sum adds the value of every series called name, across all labels.
func (d dump) sum(name string) int64 {
	var n int64
	for _, s := range d {
		if s.Name == name {
			n += s.Value
		}
	}
	return n
}

// max is the largest value among the series called name.
func (d dump) max(name string) int64 {
	var n int64
	for _, s := range d {
		if s.Name == name && s.Value > n {
			n = s.Value
		}
	}
	return n
}

// buckets sums the histogram series called name into one bucket vector.
func (d dump) buckets(name string) (le, counts []int64) {
	for _, s := range d {
		if s.Name != name || s.Kind != "histogram" {
			continue
		}
		if counts == nil {
			le, counts = s.Le, make([]int64, len(s.Counts))
		}
		for i := range s.Counts {
			if i < len(counts) {
				counts[i] += s.Counts[i]
			}
		}
	}
	return le, counts
}

// histP99 is the upper bound of the bucket holding the 99th percentile of
// the observations made between two dumps (0 when there were none).
func histP99(before, after dump, name string) float64 {
	le, c1 := after.buckets(name)
	_, c0 := before.buckets(name)
	var total int64
	for i := range c1 {
		if i < len(c0) {
			c1[i] -= c0[i]
		}
		total += c1[i]
	}
	if total == 0 {
		return 0
	}
	var seen int64
	for i, n := range c1 {
		seen += n
		if float64(seen) >= 0.99*float64(total) {
			if i < len(le) {
				return float64(le[i])
			}
			return float64(le[len(le)-1]) // overflow bucket
		}
	}
	return 0
}

// tracedIterMetrics derives one traced iteration's per-layer values: the
// registry's counters over the measured phase (dump at its end minus
// dump at its start), the sim-time spans that started inside it, the
// link statistics, and the harness's own timers.
func tracedIterMetrics(it *iter) (map[string]float64, error) {
	d0, err := parseDump(it.dump0)
	if err != nil {
		return nil, err
	}
	d1, err := parseDump(it.dump1)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return float64(d1.sum(name) - d0.sum(name)) }

	var spans []obs.Span
	for _, sp := range it.spans {
		if !sp.Start.Before(it.simStart) {
			spans = append(spans, sp)
		}
	}
	spanDurs := func(name string) []float64 {
		var out []float64
		for i := range spans {
			if spans[i].Name == name && spans[i].Ended {
				out = append(out, float64(spans[i].Duration()))
			}
		}
		return out
	}
	total := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	cp := obs.CriticalPath(spans, "venus_reintegrate")
	cpUS := func(bucket string) float64 { return float64(cp[bucket].Microseconds()) }
	opens := spanDurs("venus_open")

	m := map[string]float64{
		"simtime.sim_s_per_wall_s":       it.simDur.Seconds() / it.wall.Seconds(),
		"simtime.replay_sleep_share_pct": 100 * it.sleepWall.Seconds() / it.wall.Seconds(),

		"netsim.pkts":      float64(it.wire.PacketsSent + it.replWire.PacketsSent),
		"netsim.bytes":     float64(it.wire.BytesSent + it.replWire.BytesSent),
		"netsim.lost_pkts": float64(it.wire.PacketsLost + it.replWire.PacketsLost),

		"rpc2.calls":            delta("rpc2_calls_total"),
		"rpc2.retransmits":      delta("rpc2_retransmits_total"),
		"rpc2.timeouts":         delta("rpc2_call_timeouts_total"),
		"rpc2.cp_retransmit_us": cpUS("retransmit"),

		"sftp.transfers":           delta("sftp_transfers_total"),
		"sftp.data_pkts":           delta("sftp_data_packets_sent_total"),
		"sftp.retransmits":         delta("sftp_retransmits_total"),
		"sftp.window_stalls":       delta("sftp_window_stalls_total"),
		"sftp.goodput_pct":         0,
		"sftp.cp_serialization_us": cpUS("fragment_serialization"),

		"cml.cancelled_bytes":   delta("venus_cml_cancelled_bytes_total"),
		"cml.cancelled_records": delta("venus_cml_cancelled_records_total"),
		"cml.shipped_records":   delta("venus_shipped_records_total"),
		"cml.shipped_bytes":     delta("venus_shipped_bytes_total"),

		"venus.cache_hits":         delta("venus_cache_hits_total"),
		"venus.cache_misses":       delta("venus_cache_misses_total"),
		"venus.reintegrations":     delta("venus_reintegrations_total"),
		"venus.reint_failures":     delta("venus_reintegration_failures_total"),
		"venus.validations":        delta("venus_validations_total"),
		"venus.vol_validations_ok": delta("venus_volume_validations_ok_total"),
		"venus.failovers":          delta("venus_failovers_total"),
		"venus.miss_sim_ms_p50":    quantile(opens, 0.50) / float64(time.Millisecond),
		"venus.miss_sim_ms_p99":    quantile(opens, 0.99) / float64(time.Millisecond),
		"venus.hoardwalk_sim_s":    total(spanDurs("venus_hoard_walk")) / float64(time.Second),
		"venus.validate_sim_ms":    total(spanDurs("venus_validate")) / float64(time.Millisecond),
		"venus.cp_patience_us":     cpUS("patience_wait"),
		"venus.cp_failover_us":     cpUS("failover"),

		"server.ops":              delta("server_ops_total"),
		"server.records_applied":  delta("server_records_applied_total"),
		"server.reintegrations":   delta("server_reintegrations_total"),
		"server.callback_breaks":  delta("server_callback_breaks_total"),
		"server.conflicts":        delta("server_conflicts_total"),
		"server.lock_wait_us_p99": histP99(d0, d1, "server_lock_wait_us"),
		"server.cp_apply_us":      cpUS("server_apply"),

		"wal.appends":      delta("wal_appends_total"),
		"wal.fsyncs":       delta("wal_fsyncs_total"),
		"wal.append_bytes": delta("wal_append_bytes_total"),
		"wal.cp_fsync_us":  cpUS("fsync"),

		"group.shipped_entries":            delta("server_repl_shipped_entries_total"),
		"group.ship_bytes_per_client_byte": float64(it.replWire.BytesSent) / float64(it.wire.BytesSent),
		"group.divergences":                delta("group_divergence_total"),
		"group.replica_lag_max":            float64(d1.max("group_replica_lag_entries")),

		"obs.spans":         float64(len(it.spans)),
		"obs.spans_dropped": float64(d1.sum("obs_spans_dropped_total")),
		"obs.cp_other_us":   cpUS("other"),
	}
	if sent := delta("sftp_bytes_sent_total"); sent > 0 {
		m["sftp.goodput_pct"] = 100 * delta("sftp_bytes_received_total") / sent
	}

	m["codaperf.machine_speed_pct"] = 100 * it.speed()

	self := it.rec.selfTimes(it.id)
	for _, name := range phaseNames {
		m["codaperf.phase_"+name+"_ms"] = float64(self["phase."+name]) / float64(time.Millisecond)
	}
	return m, nil
}
