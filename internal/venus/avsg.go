package venus

import (
	"errors"
	"time"

	"repro/internal/cml"
	"repro/internal/delta"
	"repro/internal/netmon"
	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/wire"
)

// AVSG handling: Venus's view of the replicated server group. The paper's
// Coda ran every volume on an accessible volume storage group; this file
// generalizes Venus from one server to the member list in Config.Servers.
//
//   - Each volume has a preferred member, derived from the volume ID so
//     every client of a volume converges on the same member (callback
//     registrations concentrate where the volume's writes land).
//   - RPCs go to the preferred member and fail over to the next on
//     timeout; the preference sticks to whichever member answered, so one
//     dead server costs one timeout, not one per call.
//   - Reintegration fails over on ANY error, not just timeouts:
//     application-level verdicts (conflicts, failed deltas) ride inside
//     ReintegrateRep, so a transport error from the member — including a
//     remote "journal: ..." failure from a dying disk — means server
//     infrastructure failure, which is exactly what the group exists to
//     mask. Retransmitted chunks are deduplicated server-side by
//     (client, CML sequence), so duplicated delivery is idempotent.
//   - Callback breaks are accepted from any member (handleServerCall has
//     never cared who src is), because every member that applies a log
//     entry — live or shipped — dispatches its own breaks.

// Servers returns the group member addresses in canonical order.
func (v *Venus) Servers() []string {
	return append([]string(nil), v.cfg.Servers...)
}

// Monitor exposes the transport's peer monitor — per-member bandwidth,
// SRTT, and RTO estimates (§4.1). Callers read the transport's numbers
// directly; the same figures are exported as netmon gauges when a
// registry is injected.
func (v *Venus) Monitor() *netmon.Monitor { return v.node.Monitor() }

// peerOf returns the transport's view of the link to one member.
func (v *Venus) peerOf(addr string) *netmon.Peer {
	return v.node.Monitor().Peer(addr)
}

// LinkBandwidth is the bandwidth estimate (bits/s) governing Venus's
// adaptation, exported for tools and experiments.
func (v *Venus) LinkBandwidth() int64 { return v.linkBandwidth() }

// linkBandwidth is the bandwidth estimate governing state transitions
// and chunk sizing: the best current estimate across members (the client
// is as connected as its best link; a dead member must not pin the
// estimate at its last value).
func (v *Venus) linkBandwidth() int64 {
	var best int64
	for _, addr := range v.cfg.Servers {
		if bw := v.peerOf(addr).Bandwidth(); bw > best {
			best = bw
		}
	}
	return best
}

// prefIndex returns vc's preferred member index (the member this
// volume's traffic currently targets).
func (v *Venus) prefIndex(vc *vclient) int {
	if vc == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return vc.pref
}

// prefAddr returns vc's preferred member address.
func (v *Venus) prefAddr(vc *vclient) string {
	return v.cfg.Servers[v.prefIndex(vc)]
}

// defaultPref derives a volume's initial preferred member from its ID, so
// all clients of a volume start on the same member.
func (v *Venus) defaultPref(id uint64) int {
	return int(id % uint64(len(v.cfg.Servers)))
}

// noteFailover records one abandoned member attempt: the volume's
// preference advances past the failed member and the failover counters
// absorb the time the attempt burned (began until now) before Venus
// gave up on it. The burned wait becomes a venus_failover_wait span:
// under sc when the operation is traced, so the critical path can
// attribute it, and a root of its own when it is not.
func (v *Venus) noteFailover(vc *vclient, from int, began time.Time, sc obs.SpanContext) {
	n := len(v.cfg.Servers)
	if n < 2 {
		return
	}
	wait := v.clock.Now().Sub(began)
	v.mu.Lock()
	if vc != nil && vc.pref == from {
		vc.pref = (from + 1) % n
	}
	v.stats.Failovers++
	v.mu.Unlock()
	v.met.failoverWait.Add(wait.Microseconds())
	v.met.reg.SpanAt(v.met.self, "venus_failover_wait", sc, began,
		obs.F("member", v.cfg.Servers[from])).End()
}

// callVol performs one volume-scoped RPC against the group: the volume's
// preferred member first, failing over to the others on timeout. Errors
// other than timeouts are the member answering — they pass through
// without failover (the reply, not the route, is wrong). If every member
// times out, the last timeout is returned and the caller's existing
// disconnection handling takes over.
func callVol[Rep any](v *Venus, vc *vclient, req any, opts rpc2.CallOpts) (Rep, error) {
	var zero Rep
	members := v.cfg.Servers
	start := v.prefIndex(vc)
	var lastErr error
	for k := 0; k < len(members); k++ {
		i := (start + k) % len(members)
		began := v.clock.Now()
		rep, err := wire.Call[Rep](v.node, members[i], req, opts)
		if err == nil {
			return rep, nil
		}
		if !errors.Is(err, rpc2.ErrTimeout) {
			return zero, err
		}
		lastErr = err
		v.noteFailover(vc, i, began, opts.Span)
	}
	return zero, lastErr
}

// callAny performs one group-scoped RPC (no volume affinity): member 0
// first, failing over on timeout.
func callAny[Rep any](v *Venus, req any, opts rpc2.CallOpts) (Rep, error) {
	return callVol[Rep](v, nil, req, opts)
}

// reintegrateTimeout bounds one reintegration attempt against one
// member. Alone, a member gets the full patience of a slow modem link
// (§4.3.5); with a group, a stuck member is abandoned quickly because
// another can take the chunk.
func (v *Venus) reintegrateTimeout() time.Duration {
	if len(v.cfg.Servers) > 1 {
		return 2 * time.Minute
	}
	return 30 * time.Minute
}

// reintegrateCall ships one CML chunk to the group. fragData, when
// non-nil, is the contents of recs[0] (a store larger than the chunk
// size) to pre-ship as resumable fragments of fragSize bytes; fragment
// state lives per member, so a failover re-ships them to the new member
// under a fresh transfer ID rather than referencing buffers the dead
// member holds.
//
// Unlike callVol this fails over on every error (see the file comment):
// the server-side dedup set makes the retransmit safe even if the failed
// member actually applied the chunk before dying.
func (v *Venus) reintegrateCall(vc *vclient, recs []cml.Record, deltas map[int]delta.Delta, fragData []byte, fragSize int64, sc obs.SpanContext) (wire.ReintegrateRep, error) {
	members := v.cfg.Servers
	timeout := v.reintegrateTimeout()
	start := v.prefIndex(vc)
	var lastErr error
	for k := 0; k < len(members); k++ {
		i := (start + k) % len(members)
		began := v.clock.Now()
		var fragments map[int]uint64
		if fragData != nil {
			id := v.allocXfer()
			if err := v.shipFragmentsTo(members[i], id, fragData, fragSize, sc); err != nil {
				lastErr = err
				v.noteFailover(vc, i, began, sc)
				continue
			}
			fragments = map[int]uint64{0: id}
		}
		rep, err := wire.Call[wire.ReintegrateRep](v.node, members[i], wire.Reintegrate{
			Volume: vc.info.ID, Records: recs, Fragments: fragments, Deltas: deltas,
		}, rpc2.CallOpts{Timeout: timeout, Span: sc})
		if err == nil {
			return rep, nil
		}
		lastErr = err
		v.noteFailover(vc, i, began, sc)
	}
	return wire.ReintegrateRep{}, lastErr
}

// shipFragmentsTo sends data to one member as fragments of at most
// fragSize bytes, resuming from wherever that member says it already has
// contiguous data. On a traced reintegration the whole resumable ship is
// one venus_fragment_ship span with the per-fragment PutFragment calls
// as children.
func (v *Venus) shipFragmentsTo(addr string, id uint64, data []byte, fragSize int64, sc obs.SpanContext) error {
	var sp *obs.SpanHandle
	if sc.Valid() {
		sp = v.met.reg.StartSpan(v.met.self, "venus_fragment_ship", sc, obs.F("member", addr))
		if ctx := sp.Context(); ctx.Valid() {
			sc = ctx
		}
	}
	defer sp.End()
	total := int64(len(data))
	var offset int64
	for offset < total {
		end := offset + fragSize
		if end > total {
			end = total
		}
		rep, err := wire.Call[wire.PutFragmentRep](v.node, addr, wire.PutFragment{
			Transfer: id, Offset: offset, Total: total, Data: data[offset:end],
		}, rpc2.CallOpts{Timeout: v.reintegrateTimeout(), Span: sc})
		if err != nil {
			return err
		}
		offset = rep.Received
		// Yield between fragments so a foreground fetch is not starved
		// for more than one fragment's worth of time.
		if v.foregroundBusy() {
			v.clock.Sleep(time.Second)
		}
	}
	return nil
}
