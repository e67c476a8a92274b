package venus

import (
	"fmt"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/delta"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// trickleTick supervises the state machine on the trickle cadence:
// demotions when bandwidth sinks, promotions when the CMLs drain. The
// drains themselves are per-volume — every mounted volume runs its own
// volumeTrickleLoop, so independent volumes reintegrate concurrently and
// a large shipment on one cannot delay another's aged records (§4.3.3's
// per-volume reintegration, carried into the client). It runs every
// TrickleInterval until the first tick after Close.
func (v *Venus) trickleTick() bool {
	if v.isClosed() {
		return false
	}
	v.maybeDemote()
	v.maybePromote()
	return true
}

// volumeTrickleLoop is one volume's trickle daemon (§4.3.3): it ships the
// CML records older than the aging window one chunk at a time, deferring to
// foreground traffic. A committed chunk is followed at once by a look for
// the next, so a backlog drains back to back; the loop idles for the
// interval only when that look found nothing, the chunk failed, or a
// foreground fetch is in flight. The chunk size alone bounds how long
// foreground work waits (§4.3.5), not an idle gap after each chunk.
func (v *Venus) volumeTrickleLoop(vc *vclient) {
	shipped := false
	for {
		if !shipped {
			v.clock.Sleep(v.cfg.TrickleInterval)
		}
		shipped = false
		if v.isClosed() {
			return
		}
		if v.State() != WriteDisconnected {
			continue
		}
		// Defer to high-priority network use (§4.3.5): if a foreground
		// fetch is in flight, skip this cycle.
		if v.foregroundBusy() {
			continue
		}
		if v.reintegrateChunk(vc, v.effectiveAging()) {
			shipped = true
			v.maybePromote()
		}
	}
}

// chunkSize computes C from the current bandwidth estimate: the amount of
// data that occupies the network for about ChunkSeconds (§4.3.5 — 36 KB at
// 9.6 Kb/s, 240 KB at 64 Kb/s, 7.7 MB at 2 Mb/s).
func (v *Venus) chunkSize() int64 {
	bw := v.linkBandwidth()
	if bw <= 0 {
		return 64 << 10
	}
	c := bw * int64(v.cfg.ChunkSeconds) / 8
	if c < 4<<10 {
		c = 4 << 10
	}
	return c
}

// reintegrateChunk ships one chunk from vc's CML: the maximal prefix older
// than age that fits the chunk size. It returns true if the chunk was
// committed.
func (v *Venus) reintegrateChunk(vc *vclient, age time.Duration) bool {
	vc.lockDrain()
	defer vc.unlockDrain()
	c := v.chunkSize()
	records := vc.log.BeginReintegration(age, c, v.clock.Now())
	if records == nil {
		return false
	}
	sp := v.met.reg.StartSpan(v.met.self, "venus_reintegrate", obs.SpanContext{},
		obs.F("volume", vc.info.Name))
	defer sp.End()
	applied, _ := v.shipRecords(vc, records, c, true, sp.Context())
	return applied
}

// shipRecords is reintegration's one ship-and-reconcile step (§4.3.3–
// §4.3.5), whoever selected the records: ship them as one atomic
// Reintegrate, then bring the CML, the Venus journal, the cache and the
// counters into line with the server's answer. The caller holds vc's
// drain token — the only thing held across the RPCs; Venus.mu is taken
// briefly to read and to reconcile — and has frozen records behind the CML
// barrier. c is the chunk size; prefix says records are a prefix of the log
// (a trickle chunk) rather than a subsequence (a subtree closure), which
// decides how a commit removes them. sc is the caller's venus_reintegrate
// trace root: fragment pre-ship, the Reintegrate RPC, server apply, WAL,
// anti-entropy and failover waits join that tree through it.
//
// applied: the server committed the records and they have left the log.
// Otherwise the barrier is lifted — every record is again eligible for
// optimization until the retry (§4.3.3) — and err is the network or
// server failure, or nil if the server answered and refused.
func (v *Venus) shipRecords(vc *vclient, records []*cml.Record, c int64, prefix bool, sc obs.SpanContext) (applied bool, err error) {
	recs := make([]cml.Record, len(records))
	for i, r := range records {
		recs[i] = *r
	}

	// Ship differences instead of full contents where a server-known base
	// exists and the delta is worthwhile (EnableDeltas, §4.1 future work).
	var deltas map[int]delta.Delta
	var deltaSaved int64
	var deltaWire int64
	if v.cfg.EnableDeltas {
		v.mu.Lock()
		for i := range recs {
			if recs[i].Kind != cml.Store || recs[i].Data == nil {
				continue
			}
			f := v.cache.get(recs[i].FID)
			if f == nil || f.base == nil {
				continue
			}
			d := delta.Compute(delta.Sign(f.base, 0), recs[i].Data)
			if d.WireSize() >= int64(len(recs[i].Data))*3/4 {
				continue // not worth it
			}
			if deltas == nil {
				deltas = make(map[int]delta.Delta)
			}
			deltas[i] = d
			deltaSaved += int64(len(recs[i].Data)) - d.WireSize()
			deltaWire += d.WireSize()
			recs[i].Data = nil
		}
		v.mu.Unlock()
	}

	// A chunk larger than C can only be a single store of a large file;
	// its data is pre-shipped as a series of resumable fragments of size
	// ≤ C before the reintegration proper (§4.3.5). Fragment buffers are
	// per-member state, so the ship happens inside reintegrateCall —
	// re-done against each member a failover lands on.
	var fragData []byte
	if deltas == nil && len(recs) == 1 && recs[0].Kind == cml.Store && recs[0].Size() > c {
		fragData = recs[0].Data
		recs[0].Data = nil
	}

	rep, err := v.reintegrateCall(vc, recs, deltas, fragData, c, sc)
	if err != nil || !rep.Applied {
		vc.log.AbortReintegration()
		v.bumpFailure()
		if err != nil {
			return false, err
		}
		// A failed delta (base mismatch) is not a conflict: drop the shadow
		// base so the retry ships full contents. Conflicting records are
		// dropped and surfaced to the user, as after a disconnected
		// session, and the rest retry on the next cycle.
		seqs := make(map[uint64]bool)
		v.mu.Lock()
		for i, res := range rep.Results {
			switch {
			case res.DeltaFailed:
				if f := v.cache.get(records[i].FID); f != nil {
					f.base = nil
				}
			case res.Conflict:
				seqs[records[i].Seq] = true
				v.conflicts = append(v.conflicts, Conflict{
					Time: v.clock.Now(), Volume: vc.info.Name,
					Kind: records[i].Kind, Path: records[i].Name, Msg: res.Msg,
				})
			}
		}
		v.mu.Unlock()
		if len(seqs) > 0 {
			vc.log.Remove(seqs)
			v.logDrop(vc, seqs)
		}
		return false, nil
	}

	shippedBytes := deltaWire // a delta-shipped store counts at its wire size
	committed := make(map[uint64]bool, len(records))
	now := v.clock.Now()
	for i, r := range records {
		if _, viaDelta := deltas[i]; !viaDelta {
			shippedBytes += r.Size()
		}
		committed[r.Seq] = true
		v.met.residency.Observe(int64(now.Sub(r.Time).Seconds()))
	}
	if prefix {
		vc.log.CommitReintegration()
	} else {
		vc.log.CommitSubtree(committed)
	}
	// The server holds these records now: journal their removal so a
	// crash does not resurrect (and re-ship) them.
	v.logDrop(vc, committed)
	v.mu.Lock()
	v.stats.Reintegrations++
	v.stats.ShippedRecords += int64(len(records))
	v.stats.ShippedBytes += shippedBytes
	v.stats.DeltaStores += int64(len(deltas))
	v.stats.DeltaSavedBytes += deltaSaved
	vc.stamp = rep.VolStamp
	for _, st := range rep.Statuses {
		if f := v.cache.get(st.FID); f != nil {
			f.obj.Status.Version = st.Version
			// The server now holds our contents: the shadow base is
			// obsolete (a future write re-shadows from current data).
			f.base = nil
		}
	}
	v.clearDrainedDirtyLocked(records)
	v.mu.Unlock()
	return true, nil
}

func (v *Venus) bumpFailure() {
	v.mu.Lock()
	v.stats.ReintegrationFailures++
	v.mu.Unlock()
}

// clearDrainedDirtyLocked clears dirty flags for the objects the shipped
// chunk names that no CML record references any more. Each log keeps a
// count per object, so this costs the chunk's size, not the logs'.
func (v *Venus) clearDrainedDirtyLocked(shipped []*cml.Record) {
	referenced := func(fid codafs.FID) bool {
		for _, vc := range v.volumes {
			if vc.log.Referenced(fid) {
				return true
			}
		}
		return false
	}
	for _, r := range shipped {
		for _, fid := range [...]codafs.FID{r.FID, r.Parent, r.NewParent} {
			if f := v.cache.get(fid); f != nil && !referenced(fid) {
				f.dirty = false
			}
		}
	}
}

// ForceReintegrateSubtree immediately reintegrates the updates affecting
// one directory subtree (or single object), without waiting for unrelated
// records — the refinement §4.3.5 describes: "force immediate
// reintegration of updates to a specific directory or subtree, without
// waiting for propagation of other updates". The CML computes the
// precedence closure so no record ships before its antecedents.
func (v *Venus) ForceReintegrateSubtree(path string) error {
	if v.State() == Emulating {
		return ErrDisconnected
	}
	vc, f, err := v.resolve(path, false)
	if err != nil {
		return err
	}

	// Collect the FIDs in the subtree from the cache (local truth while
	// disconnected or weakly connected).
	v.mu.Lock()
	members := map[codafs.FID]bool{f.obj.Status.FID: true}
	if f.obj.Status.Type == codafs.Directory {
		var walk func(fid codafs.FID, depth int)
		walk = func(fid codafs.FID, depth int) {
			if depth > 32 {
				return
			}
			fo := v.cache.get(fid)
			if fo == nil {
				return
			}
			for _, child := range fo.obj.Children {
				members[child] = true
				walk(child, depth+1)
			}
		}
		walk(f.obj.Status.FID, 0)
	}
	v.mu.Unlock()

	// Serialize with this volume's other drains: without the drain lock a
	// trickle chunk in flight would hold the CML barrier and this call
	// would see "nothing pending" despite pending subtree records.
	vc.lockDrain()
	defer vc.unlockDrain()

	records := vc.log.BeginSubtreeReintegration(func(r *cml.Record) bool {
		return members[r.FID] || members[r.Parent] || members[r.NewParent]
	})
	if records == nil {
		return nil // nothing pending for this subtree
	}

	sp := v.met.reg.StartSpan(v.met.self, "venus_reintegrate", obs.SpanContext{},
		obs.F("volume", vc.info.Name), obs.F("subtree", path))
	defer sp.End()
	applied, err := v.shipRecords(vc, records, v.chunkSize(), false, sp.Context())
	if err == nil && !applied {
		err = fmt.Errorf("venus: subtree reintegration of %s rejected by server", path)
	}
	return err
}

// ForceReintegrate drains every CML immediately, ignoring the aging window
// — the user is about to hang up the phone or walk out of wireless range
// (§4.3.2). Volumes drain concurrently, one goroutine per volume, so the
// total wait is the slowest volume rather than the sum. It returns an
// error if records remain (network failure or persistent conflicts).
func (v *Venus) ForceReintegrate() error {
	if v.State() == Emulating {
		return ErrDisconnected
	}
	for pass := 0; pass < 1000; pass++ {
		v.mu.Lock()
		vols := v.volumeList()
		v.mu.Unlock()
		type drained struct {
			remaining int
			progress  bool
		}
		done := simtime.NewQueue[drained](v.clock)
		for _, vc := range vols {
			vc := vc
			v.clock.Go(func() {
				var d drained
				for vc.log.Len() > 0 {
					if !v.reintegrateChunk(vc, 0) {
						break
					}
					d.progress = true
				}
				d.remaining = vc.log.Len()
				done.Put(d)
			})
		}
		remaining := 0
		progress := false
		for range vols {
			d, _ := done.Get()
			remaining += d.remaining
			progress = progress || d.progress
		}
		if remaining == 0 {
			v.maybePromote()
			return nil
		}
		if !progress {
			return fmt.Errorf("venus: %d CML records could not be reintegrated", remaining)
		}
	}
	return fmt.Errorf("venus: reintegration did not converge")
}
