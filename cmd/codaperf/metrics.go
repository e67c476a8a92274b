package main

// metricDef names one reported metric. The two tables below are the Go
// twin of BENCHMARK.json; main_test.go fails if they drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound (end-to-end metrics only) is the share of the baseline by
	// which the metric may worsen before it counts as a regression; -aa
	// holds two runs of the same code to it.
	Bound float64
}

// endToEnd lists the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"cpu_ms_per_kop", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"sim_s", "sim_s", "lower", 0.03},
	{"wire_bytes_per_user_byte", "ratio", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// deterministic names the end-to-end metrics that are pure functions of
// the seed: -aa and the smoke test require them bit-identical.
var deterministic = map[string]bool{"sim_s": true, "wire_bytes_per_user_byte": true}

// probeMetrics are timed by the isolated per-layer loops in probes.go.
var probeMetrics = []metricDef{
	{"simtime.sleep_ns", "ns", "lower", 0},
	{"simtime.handoff_ns", "ns", "lower", 0},
	{"simtime.timeout_ns", "ns", "lower", 0},
	{"netsim.pkt_ns", "ns", "lower", 0},
	{"wire.fetchrep4k_encode_ns", "ns", "lower", 0},
	{"wire.fetchrep4k_decode_ns", "ns", "lower", 0},
	{"wire.fetchrep4k_allocs", "count", "lower", 0},
	{"wire.fetchrep4k_overhead_bytes", "bytes", "lower", 0},
	{"wire.reint32_encode_ns", "ns", "lower", 0},
	{"wire.reint32_decode_ns", "ns", "lower", 0},
	{"wire.reint32_allocs", "count", "lower", 0},
	{"wire.reint32_overhead_bytes", "bytes", "lower", 0},
	{"rpc2.call_ns", "ns", "lower", 0},
	{"rpc2.call_allocs", "count", "lower", 0},
	{"rpc2.call_overhead_bytes", "bytes", "lower", 0},
	{"sftp.mb_per_s", "MB/s", "higher", 0},
	{"sftp.allocs_per_mb", "count", "lower", 0},
	{"sftp.modem_efficiency_pct", "%", "higher", 0},
	{"cml.append_ns", "ns", "lower", 0},
	{"cml.chunk_ns", "ns", "lower", 0},
	{"venus.hit_read_ns", "ns", "lower", 0},
	{"venus.hit_read_allocs", "count", "lower", 0},
	{"venus.hit_stat_ns", "ns", "lower", 0},
	{"venus.disc_write_ns", "ns", "lower", 0},
	{"venus.disc_write_journaled_ns", "ns", "lower", 0},
	{"server.write_ns", "ns", "lower", 0},
	{"server.write_journaled_ns", "ns", "lower", 0},
	{"server.write_journaled_allocs", "count", "lower", 0},
	{"server.savestate_ms", "ms", "lower", 0},
	{"wal.append_ns", "ns", "lower", 0},
	{"wal.append_allocs", "count", "lower", 0},
	{"wal.replay_ns_per_rec", "ns", "lower", 0},
	{"wal.disk_bytes_per_payload_byte", "ratio", "lower", 0},
	{"crashfs.write_ns", "ns", "lower", 0},
	{"crashfs.sync_ns", "ns", "lower", 0},
	{"group.reint4_ms", "ms", "lower", 0},
	{"trace.generate_ms", "ms", "lower", 0},
	{"obs.span_ns", "ns", "lower", 0},
	{"obs.counter_ns", "ns", "lower", 0},
	{"bufpool.cycle_ns", "ns", "lower", 0},
}

// tracedMetrics are read per workload from the traced pass.
var tracedMetrics = []metricDef{
	{"simtime.sim_s_per_wall_s", "sim_s/s", "higher", 0},
	{"simtime.replay_sleep_share_pct", "%", "lower", 0},
	{"netsim.pkts", "count", "lower", 0},
	{"netsim.bytes", "bytes", "lower", 0},
	{"netsim.lost_pkts", "count", "lower", 0},
	{"rpc2.calls", "count", "lower", 0},
	{"rpc2.retransmits", "count", "lower", 0},
	{"rpc2.timeouts", "count", "lower", 0},
	{"rpc2.cp_retransmit_us", "sim_us", "lower", 0},
	{"sftp.transfers", "count", "lower", 0},
	{"sftp.data_pkts", "count", "lower", 0},
	{"sftp.retransmits", "count", "lower", 0},
	{"sftp.window_stalls", "count", "lower", 0},
	{"sftp.goodput_pct", "%", "higher", 0},
	{"sftp.cp_serialization_us", "sim_us", "lower", 0},
	{"cml.cancelled_bytes", "bytes", "higher", 0},
	{"cml.cancelled_records", "count", "higher", 0},
	{"cml.shipped_records", "count", "lower", 0},
	{"cml.shipped_bytes", "bytes", "lower", 0},
	{"venus.cache_hits", "count", "higher", 0},
	{"venus.cache_misses", "count", "lower", 0},
	{"venus.reintegrations", "count", "lower", 0},
	{"venus.reint_failures", "count", "lower", 0},
	{"venus.validations", "count", "lower", 0},
	{"venus.vol_validations_ok", "count", "higher", 0},
	{"venus.failovers", "count", "lower", 0},
	{"venus.miss_sim_ms_p50", "sim_ms", "lower", 0},
	{"venus.miss_sim_ms_p99", "sim_ms", "lower", 0},
	{"venus.hoardwalk_sim_s", "sim_s", "lower", 0},
	{"venus.validate_sim_ms", "sim_ms", "lower", 0},
	{"venus.cp_patience_us", "sim_us", "lower", 0},
	{"venus.cp_failover_us", "sim_us", "lower", 0},
	{"server.ops", "count", "lower", 0},
	{"server.records_applied", "count", "lower", 0},
	{"server.reintegrations", "count", "lower", 0},
	{"server.callback_breaks", "count", "lower", 0},
	{"server.conflicts", "count", "lower", 0},
	{"server.lock_wait_us_p99", "us", "lower", 0},
	{"server.cp_apply_us", "sim_us", "lower", 0},
	{"wal.appends", "count", "lower", 0},
	{"wal.fsyncs", "count", "lower", 0},
	{"wal.append_bytes", "bytes", "lower", 0},
	{"wal.cp_fsync_us", "sim_us", "lower", 0},
	{"group.shipped_entries", "count", "lower", 0},
	{"group.ship_bytes_per_client_byte", "ratio", "lower", 0},
	{"group.divergences", "count", "lower", 0},
	{"group.replica_lag_max", "count", "lower", 0},
	{"obs.spans", "count", "lower", 0},
	{"obs.spans_dropped", "count", "lower", 0},
	{"obs.cp_other_us", "sim_us", "lower", 0},
	{"obs.trace_overhead_pct", "%", "lower", 0},
	{"codaperf.iters", "count", "higher", 0},
	{"codaperf.iter_wall_ms_p50", "ms", "lower", 0},
	{"codaperf.iter_wall_ms_p75", "ms", "lower", 0},
	{"codaperf.wall_iqr_pct", "%", "lower", 0},
	{"codaperf.leaked_goroutines", "count", "lower", 0},
	{"codaperf.machine_speed_pct", "%", "higher", 0},
	{"codaperf.phase_build_ms", "ms", "lower", 0},
	{"codaperf.phase_warm_ms", "ms", "lower", 0},
	{"codaperf.phase_measure_ms", "ms", "lower", 0},
	{"codaperf.phase_verify_ms", "ms", "lower", 0},
	{"codaperf.phase_teardown_ms", "ms", "lower", 0},
}

// perLayer is every per-layer metric, probes first, in report order.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), probeMetrics...), tracedMetrics...)
}
