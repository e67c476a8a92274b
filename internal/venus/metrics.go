package venus

import (
	"repro/internal/cml"
	"repro/internal/obs"
)

// bandOf buckets a hoard priority into the coarse bands used for cache
// hit/miss accounting: unhoarded objects, then low/medium/high hoard
// priority (Figure 6's working-set tiers). It returns an index into
// hoardBands.
func bandOf(pri int) int {
	switch {
	case pri <= 0:
		return 0
	case pri < 100:
		return 1
	case pri < 600:
		return 2
	default:
		return 3
	}
}

// hoardBands labels the bands bandOf numbers, in order.
var hoardBands = [...]string{"none", "low", "medium", "high"}

// hoardPhases names the four phases of HoardWalk, in order.
var hoardPhases = []string{"status_walk", "approval", "data_walk", "stamps"}

var cancelClasses = []cml.CancelClass{
	cml.CancelStoreOverwrite, cml.CancelSetAttrOverwrite,
	cml.CancelIdentity, cml.CancelRemoveMoot,
}

// residencyBucketsS buckets how long a CML record lived before shipping,
// in seconds. The aging window default is 600 s, so the buckets straddle
// it: records shipped well before A mean a forced drain, well after mean
// a backlogged link.
var residencyBucketsS = []int64{1, 10, 60, 300, 600, 1200, 3600, 7200}

// hoardPhaseBucketsUS buckets hoard-walk phase durations (microseconds):
// status walks are sub-second on a LAN but data walks can run minutes on
// a modem.
var hoardPhaseBucketsUS = []int64{
	1_000, 10_000, 100_000, 1_000_000, 10_000_000, 60_000_000, 600_000_000,
}

// vmetrics holds Venus's pre-registered obs handles for events Stats does
// not count. Handles are created once at construction — CML cancellations
// fire under the log's mutex, and a pre-resolved atomic handle keeps
// those paths allocation- and lock-free. Every handle is nil (and inert)
// when no registry was injected. The Stats counts themselves reach the
// registry as func-backed series over v.stats (newVMetrics).
type vmetrics struct {
	reg  *obs.Registry
	self string // the client's node address, span node label

	cacheHits   [len(hoardBands)]*obs.Counter // by bandOf
	cacheMisses [len(hoardBands)]*obs.Counter

	failoverWait *obs.Counter
	residency    *obs.Histogram

	cancelRecs  map[cml.CancelClass]*obs.Counter
	cancelBytes map[cml.CancelClass]*obs.Counter

	hoardWalks *obs.Counter
	hoardPhase map[string]*obs.Histogram
}

// newVMetrics registers Venus's metric catalog under the client's node
// address. The gauge and counter funcs close over v and take v.mu when
// evaluated — legal because obs never evaluates them under its own lock.
func newVMetrics(reg *obs.Registry, v *Venus, addr string) *vmetrics {
	client := obs.L("client", addr)
	m := &vmetrics{
		reg:         reg,
		self:        addr,
		cancelRecs:  make(map[cml.CancelClass]*obs.Counter, len(cancelClasses)),
		cancelBytes: make(map[cml.CancelClass]*obs.Counter, len(cancelClasses)),
		hoardPhase:  make(map[string]*obs.Histogram, len(hoardPhases)),
	}
	for i, b := range hoardBands {
		m.cacheHits[i] = reg.Counter("venus_cache_hits_total", client, obs.L("band", b))
		m.cacheMisses[i] = reg.Counter("venus_cache_misses_total", client, obs.L("band", b))
	}
	m.failoverWait = reg.Counter("venus_failover_wait_us_total", client)
	m.residency = reg.Histogram("venus_cml_residency_s", residencyBucketsS, client)

	for _, c := range cancelClasses {
		cl := obs.L("class", string(c))
		m.cancelRecs[c] = reg.Counter("venus_cml_cancelled_records_total", client, cl)
		m.cancelBytes[c] = reg.Counter("venus_cml_cancelled_bytes_total", client, cl)
	}

	m.hoardWalks = reg.Counter("venus_hoard_walks_total", client)
	for _, p := range hoardPhases {
		m.hoardPhase[p] = reg.Histogram("venus_hoard_phase_us", hoardPhaseBucketsUS,
			client, obs.L("phase", p))
	}

	if reg == nil {
		return m // the closures below escape to the heap even for a nil registry
	}
	locked := func(p *int64) func() int64 { return func() int64 { return v.count(p) } }
	st := &v.stats
	reg.CounterFunc("venus_miss_verdicts_total", locked(&st.TransparentFetches), client, obs.L("verdict", "transparent"))
	reg.CounterFunc("venus_miss_verdicts_total", locked(&st.DeferredMisses), client, obs.L("verdict", "deferred"))
	reg.CounterFunc("venus_miss_verdicts_total", locked(&st.DisconnectedMisses), client, obs.L("verdict", "disconnected"))
	reg.CounterFunc("venus_validations_total", locked(&st.VolValidations), client, obs.L("kind", "volume"))
	reg.CounterFunc("venus_validations_total", locked(&st.ObjValidations), client, obs.L("kind", "object"))
	reg.CounterFunc("venus_volume_validations_ok_total", locked(&st.VolValidationsOK), client)
	reg.CounterFunc("venus_objs_saved_by_volume_total", locked(&st.ObjsSavedByVolume), client)
	reg.CounterFunc("venus_missing_stamp_total", locked(&st.MissingStamp), client)
	reg.CounterFunc("venus_reintegrations_total", locked(&st.Reintegrations), client)
	reg.CounterFunc("venus_reintegration_failures_total", locked(&st.ReintegrationFailures), client)
	reg.CounterFunc("venus_failovers_total", locked(&st.Failovers), client)
	reg.CounterFunc("venus_shipped_bytes_total", locked(&st.ShippedBytes), client)
	reg.CounterFunc("venus_shipped_records_total", locked(&st.ShippedRecords), client)
	reg.CounterFunc("venus_delta_stores_total", locked(&st.DeltaStores), client)
	reg.CounterFunc("venus_delta_saved_bytes_total", locked(&st.DeltaSavedBytes), client)
	for from, row := range v.transitions {
		for to := range row {
			if from != to {
				reg.CounterFunc("venus_state_transitions_total", locked(&v.transitions[from][to]),
					client, obs.L("from", State(from).String()), obs.L("to", State(to).String()))
			}
		}
	}

	reg.GaugeFunc("venus_cml_records", func() int64 { return int64(v.CMLRecords()) }, client)
	reg.GaugeFunc("venus_cml_bytes", v.CMLBytes, client)
	reg.GaugeFunc("venus_cml_saved_bytes", v.OptimizedBytes, client)
	return m
}

// hit/miss record one cache lookup outcome in the object's hoard band.
func (m *vmetrics) hit(pri int)  { m.cacheHits[bandOf(pri)].Inc() }
func (m *vmetrics) miss(pri int) { m.cacheMisses[bandOf(pri)].Inc() }
