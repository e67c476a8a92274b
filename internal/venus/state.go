package venus

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/wire"
)

// transition moves Venus between states (Figure 2), performing the actions
// each edge requires. Each edge taken is a zero-duration
// venus_state_transition root span, recorded after v.mu is released.
func (v *Venus) transition(to State, reason string) {
	v.mu.Lock()
	from := v.state
	if from == to {
		v.mu.Unlock()
		return
	}
	// The only legal edges are those of Figure 2; emulating must pass
	// through write-disconnected on any reconnection.
	if from == Emulating && to == Hoarding {
		to = WriteDisconnected
	}
	v.state = to
	v.transitions[from][to]++

	switch {
	case to == Emulating:
		// Object callbacks are meaningless while disconnected; cached
		// state is used as-is and revalidated at reconnection.
		for _, f := range v.cache.all() {
			f.hasCallback = false
		}
	case from == Emulating && to == WriteDisconnected:
		// Reconnection: rapid cache validation with volume stamps
		// happens outside the lock, below.
	}
	v.mu.Unlock()

	now := v.clock.Now()
	v.met.reg.SpanAt(v.met.self, "venus_state_transition", obs.SpanContext{}, now,
		obs.F("from", from.String()), obs.F("to", to.String()), obs.F("reason", reason)).EndAt(now)

	if from == Emulating && to == WriteDisconnected {
		v.validateOnReconnect()
	}
}

// Disconnect severs Venus from the server (the user pulled the cable, or
// the connectivity prober gave up). Cached data remains usable; updates are
// logged.
func (v *Venus) Disconnect() {
	v.transition(Emulating, "explicit disconnect")
}

// Connect tells Venus the network is back. bandwidthHint, if positive,
// seeds the bandwidth estimate (e.g. the user named the attached network);
// transport measurements refine it continuously. Venus enters the
// write-disconnected state; the trickle daemon promotes it to hoarding once
// connectivity is strong and the CML has drained (Figure 2).
func (v *Venus) Connect(bandwidthHint int64) {
	if bandwidthHint > 0 {
		for _, addr := range v.cfg.Servers {
			v.peerOf(addr).SetBandwidth(bandwidthHint)
		}
	}
	v.transition(WriteDisconnected, "reconnected")
}

// WriteDisconnect forces the write-disconnected state regardless of
// connection strength — the paper's "logically disconnected while
// physically connected" mode of use (§3.2).
func (v *Venus) WriteDisconnect() {
	v.transition(WriteDisconnected, "forced write-disconnect")
}

// maybePromote moves WriteDisconnected → Hoarding when connectivity is
// strong and every CML has drained; called by the trickle daemon after
// successful reintegrations.
func (v *Venus) maybePromote() {
	if v.cfg.PinWriteDisconnected {
		return
	}
	v.mu.Lock()
	if v.state != WriteDisconnected {
		v.mu.Unlock()
		return
	}
	strong := v.linkBandwidth() >= v.cfg.StrongThreshold
	empty := true
	for _, vc := range v.volumes {
		if vc.log.Len() > 0 {
			empty = false
			break
		}
	}
	v.mu.Unlock()
	if strong && empty {
		v.transition(Hoarding, "strong connectivity, CML drained")
	}
}

// maybeDemote moves Hoarding → WriteDisconnected when the measured
// bandwidth has sunk below the strong threshold.
func (v *Venus) maybeDemote() {
	v.mu.Lock()
	demote := v.state == Hoarding
	v.mu.Unlock()
	if !demote {
		return
	}
	bw := v.linkBandwidth()
	if bw > 0 && bw < v.cfg.StrongThreshold {
		v.transition(WriteDisconnected, "bandwidth below strong threshold")
	}
}

// validateOnReconnect performs rapid cache validation (§4.2): all cached
// volume stamps are presented in batched RPCs; every object in a volume
// whose stamp is still valid is thereby validated at once, and a fresh
// volume callback comes as a side effect. Objects in volumes with missing
// or stale stamps become suspect and are validated individually on demand
// or at the next hoard walk.
//
// With a group, each volume's stamp is validated against the member the
// stamp came from (its preferred member): volumes are batched by
// preference, one RPC per distinct member. A member that lags its peers
// would reject a stamp another member issued even though the client's
// cache is good; asking the issuer avoids that false suspicion.
func (v *Venus) validateOnReconnect() {
	root := v.met.reg.StartSpan(v.met.self, "venus_validate", obs.SpanContext{})
	defer root.End()
	v.mu.Lock()
	type batchEntry struct {
		vc   *vclient
		objs int
	}
	type memberBatch struct {
		pref    int
		pairs   []wire.VolStampPair
		entries []batchEntry
	}
	var batches []memberBatch // one per member
	for _, vc := range v.volumes {
		cached := v.cache.inVolume(vc.info.ID)
		if v.cfg.DisableVolumeCallbacks || !vc.hasStamp {
			if !v.cfg.DisableVolumeCallbacks {
				v.stats.MissingStamp++
			}
			for _, f := range cached {
				if !f.dirty {
					f.valid = false
				}
			}
			continue
		}
		i := slices.IndexFunc(batches, func(b memberBatch) bool { return b.pref == vc.pref })
		if i < 0 {
			i = len(batches)
			batches = append(batches, memberBatch{pref: vc.pref})
		}
		batches[i].entries = append(batches[i].entries, batchEntry{vc: vc, objs: len(cached)})
	}
	// Out of map order: the batches go by member and each lists its
	// volumes by name, so the calls and their bytes repeat run to run.
	slices.SortFunc(batches, func(a, b memberBatch) int { return cmp.Compare(a.pref, b.pref) })
	for i := range batches {
		b := &batches[i]
		slices.SortFunc(b.entries, func(x, y batchEntry) int { return strings.Compare(x.vc.info.Name, y.vc.info.Name) })
		for _, e := range b.entries {
			b.pairs = append(b.pairs, wire.VolStampPair{ID: e.vc.info.ID, Stamp: e.vc.stamp})
		}
	}
	v.mu.Unlock()

	for _, b := range batches {
		rep, err := callVol[wire.ValidateVolumesRep](v, b.entries[0].vc,
			wire.ValidateVolumes{Volumes: b.pairs}, rpc2.CallOpts{Span: root.Context()})
		if err != nil {
			// Validation will be retried on the next reconnection; treat
			// this batch as suspect meanwhile.
			v.mu.Lock()
			for _, e := range b.entries {
				e.vc.hasStamp = false
				for _, f := range v.cache.inVolume(e.vc.info.ID) {
					if !f.dirty {
						f.valid = false
					}
				}
			}
			v.mu.Unlock()
			continue
		}

		v.mu.Lock()
		for i, e := range b.entries {
			v.stats.VolValidations++
			if rep.Valid[i] {
				v.stats.VolValidationsOK++
				v.stats.ObjsSavedByVolume += int64(e.objs)
				// Volume callback reacquired as a side effect; every
				// cached object from the volume is revalidated at once.
				for _, f := range v.cache.inVolume(e.vc.info.ID) {
					if !f.dirty {
						f.valid = true
					}
				}
			} else {
				e.vc.hasStamp = false
				for _, f := range v.cache.inVolume(e.vc.info.ID) {
					if !f.dirty {
						f.valid = false
					}
				}
			}
		}
		v.mu.Unlock()
	}
}

// handleServerCall services calls from the server — callback breaks.
func (v *Venus) handleServerCall(src string, _ obs.SpanContext, body []byte) ([]byte, error) {
	msg, err := wire.Decode(body)
	if err != nil {
		return nil, err
	}
	brk, ok := msg.(wire.CallbackBreak)
	if !ok {
		return nil, fmt.Errorf("venus: unexpected server call %T", msg)
	}
	v.mu.Lock()
	for _, fid := range brk.FIDs {
		f := v.cache.get(fid)
		if f == nil {
			continue
		}
		if f.dirty {
			// §4.3.2: an object awaiting reintegration was updated by
			// a strongly-connected client. Consistent with optimism, the
			// break is ignored; the conflict, if real, surfaces at
			// reintegration.
			continue
		}
		f.hasCallback = false
		f.valid = false
	}
	for _, volID := range brk.Volumes {
		vc := v.volByID[volID]
		if vc == nil {
			continue
		}
		vc.hasStamp = false
		// Objects without individual callbacks were covered only by the
		// volume callback; they become suspect. Those with object
		// callbacks stay valid until their own break arrives (§4.2.2).
		for _, f := range v.cache.inVolume(volID) {
			if !f.hasCallback && !f.dirty {
				f.valid = false
			}
		}
	}
	v.mu.Unlock()
	return wire.Encode(wire.CallbackBreakRep{})
}
