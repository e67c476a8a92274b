package server

import (
	"fmt"
	"sort"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/delta"
	"repro/internal/obs"
	"repro/internal/wire"
)

// handle dispatches one incoming RPC. Connected-mode mutations and
// reintegration share one pipeline (applyBatchLocked: admit, stage in
// place, journal, commit or undo), so conflict semantics are identical
// whichever path an update takes to the server.
//
// Each handler resolves its request to a volume under the registry lock,
// then executes entirely inside that volume's domain, so requests for
// distinct volumes proceed in parallel under rpc2's concurrent dispatch.
func (s *Server) handle(src string, sc obs.SpanContext, body []byte) ([]byte, error) {
	v, err := wire.Decode(body)
	if err != nil {
		return nil, err
	}
	s.stats.calls.Add(1)
	s.observeOp(v)

	var rep any
	switch req := v.(type) {
	case wire.GetVolume:
		rep, err = s.getVolume(req)
	case wire.GetAttr:
		rep, err = s.getAttr(src, req)
	case wire.Fetch:
		rep, err = s.fetch(src, req)
	case wire.ValidateVolumes:
		rep = s.validateVolumes(src, req)
	case wire.ValidateObjects:
		rep = s.validateObjects(src, req)
	case wire.GetVolumeStamp:
		rep, err = s.getVolumeStamp(src, req)

	case wire.StoreOp, wire.SetAttrOp, wire.MakeObject, wire.RemoveOp, wire.RenameOp, wire.LinkOp:
		rep, err = s.mutate(src, sc, req)

	case wire.Reintegrate:
		rep, err = s.reintegrate(src, sc, req)
	case wire.PutFragment:
		rep, err = s.putFragment(src, req)

	case wire.ShipLog:
		rep, err = s.shipLog(src, sc, req)
	case wire.FetchLog:
		rep, err = s.fetchLog(req)

	default:
		err = fmt.Errorf("server: unknown request %T", v)
	}
	if err != nil {
		return nil, err
	}
	return wire.EncodeFrame(rep) // the rpc2 Node frees it once the caller has it
}

func (s *Server) getVolume(req wire.GetVolume) (wire.GetVolumeRep, error) {
	v, ok := s.volByName(req.Name)
	if !ok {
		return wire.GetVolumeRep{}, fmt.Errorf("no volume %q", req.Name)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return wire.GetVolumeRep{Info: v.info, Root: v.objects[v.root].Status}, nil
}

func (s *Server) getAttr(src string, req wire.GetAttr) (wire.GetAttrRep, error) {
	v, ok := s.volByID(req.FID.Volume)
	if !ok {
		return wire.GetAttrRep{}, fmt.Errorf("no volume %d", req.FID.Volume)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	o, ok := v.objects[req.FID]
	if !ok {
		return wire.GetAttrRep{}, fmt.Errorf("no object %s", req.FID)
	}
	if req.WantCallback {
		v.registerObjCallbackLocked(req.FID, src)
	}
	return wire.GetAttrRep{Status: o.Status}, nil
}

func (s *Server) fetch(src string, req wire.Fetch) (wire.FetchRep, error) {
	v, ok := s.volByID(req.FID.Volume)
	if !ok {
		return wire.FetchRep{}, fmt.Errorf("no volume %d", req.FID.Volume)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	o, ok := v.objects[req.FID]
	if !ok {
		return wire.FetchRep{}, fmt.Errorf("no object %s", req.FID)
	}
	if req.WantCallback {
		v.registerObjCallbackLocked(req.FID, src)
	}
	return wire.FetchRep{Object: *o.Clone()}, nil
}

func (s *Server) validateVolumes(src string, req wire.ValidateVolumes) wire.ValidateVolumesRep {
	rep := wire.ValidateVolumesRep{
		Valid:  make([]bool, len(req.Volumes)),
		Stamps: make([]uint64, len(req.Volumes)),
	}
	for i, pair := range req.Volumes {
		v, ok := s.volByID(pair.ID)
		if !ok {
			continue
		}
		v.mu.Lock()
		rep.Stamps[i] = v.info.Stamp
		if v.info.Stamp == pair.Stamp {
			rep.Valid[i] = true
			v.volCallbacks[src] = true // granted as a side effect (§4.2.2)
		}
		v.mu.Unlock()
	}
	return rep
}

func (s *Server) validateObjects(src string, req wire.ValidateObjects) wire.ValidateObjectsRep {
	rep := wire.ValidateObjectsRep{
		Valid:    make([]bool, len(req.Objects)),
		Statuses: make([]codafs.Status, len(req.Objects)),
	}
	for i, fv := range req.Objects {
		v, ok := s.volByID(fv.FID.Volume)
		if !ok {
			continue
		}
		v.mu.Lock()
		o, ok := v.objects[fv.FID]
		if !ok {
			v.mu.Unlock()
			continue // removed: zero status signals the client to drop it
		}
		rep.Statuses[i] = o.Status
		if o.Status.Version == fv.Version {
			rep.Valid[i] = true
			v.registerObjCallbackLocked(fv.FID, src)
		}
		v.mu.Unlock()
	}
	return rep
}

func (s *Server) getVolumeStamp(src string, req wire.GetVolumeStamp) (wire.GetVolumeStampRep, error) {
	v, ok := s.volByID(req.Volume)
	if !ok {
		return wire.GetVolumeStampRep{}, fmt.Errorf("no volume %d", req.Volume)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.volCallbacks[src] = true
	return wire.GetVolumeStampRep{Stamp: v.info.Stamp}, nil
}

// mutate runs one connected-mode update — the record its request
// carries (wire.RecordOf) — as a batch of one; the reply leads with the
// new status of the object RecordOf names. On a traced call the
// validate/journal/commit sequence is one server_apply span, with the
// journal append (and its fsync) as children.
func (s *Server) mutate(src string, sc obs.SpanContext, req any) (wire.MutateRep, error) {
	rec, repFID, _ := wire.RecordOf(req)
	v, ok := s.volByID(rec.FID.Volume)
	if !ok {
		return wire.MutateRep{}, fmt.Errorf("no volume %d", rec.FID.Volume)
	}
	s.observeVolOp(v)
	applyCtx := obs.SpanContext{}
	if sc.Valid() {
		sp := s.obs.StartSpan(s.addr, "server_apply", sc)
		applyCtx = sp.Context()
		defer sp.End()
	}
	s.lockVolume(v)
	//codalint:ignore lockhold journal-first commit: v.mu must cover the batch append so a concurrent apply to this volume cannot reorder LSNs
	failed, res, statuses, breaks, err := applyBatchLocked(v, src, []cml.Record{rec}, batchLive, 0, applyCtx)
	rep := wire.MutateRep{VolStamp: v.info.Stamp}
	v.mu.Unlock()
	if err != nil {
		return wire.MutateRep{}, err
	}
	if failed >= 0 {
		return wire.MutateRep{}, fmt.Errorf("%s", res.Msg)
	}
	s.stats.recordsApplied.Add(1)
	for _, st := range statuses {
		if st.FID == repFID {
			rep.Status = st
		}
		if st.FID == rec.Parent {
			rep.ParentStatus = st
		}
	}
	s.dispatchBreaks(breaks)
	s.shipToPeers(v, sc)
	return rep, nil
}

// putFragment appends one fragment to its transfer's buffer. A fragment
// is refused, its buffer untouched, unless it fits the transfer's shape:
// a Total that is not negative and repeats the first fragment's, and data
// that ends within it. The buffer grows by the SFTP receiver's rule
// (DESIGN.md §4.9) — to four times the bytes received, never past Total —
// so a file of up to four fragments is allocated once, at its size, and a
// forged Total claims no more memory than the bytes that came with it.
// req.Data is lent (wire.PutFragment): this append is its one copy.
func (s *Server) putFragment(src string, req wire.PutFragment) (wire.PutFragmentRep, error) {
	if req.Total < 0 || req.Offset < 0 || int64(len(req.Data)) > req.Total-req.Offset {
		return wire.PutFragmentRep{}, fmt.Errorf("fragment [%d, +%d) does not fit total %d", req.Offset, len(req.Data), req.Total)
	}
	s.fragMu.Lock()
	defer s.fragMu.Unlock()
	k := fragKey{client: src, transfer: req.Transfer}
	fb := s.frags[k]
	if fb == nil {
		fb = &fragBuf{total: req.Total}
		s.frags[k] = fb
	} else if fb.total != req.Total {
		return wire.PutFragmentRep{}, fmt.Errorf("fragment total %d, transfer %d began with %d", req.Total, req.Transfer, fb.total)
	}
	fb.lastActive = s.clock.Now()
	have := int64(len(fb.data))
	switch {
	case req.Offset < have:
		// Duplicate or overlapping resend; keep what we have.
	case req.Offset == have:
		if n := have + int64(len(req.Data)); n > int64(cap(fb.data)) {
			grown := make([]byte, have, min(4*n, fb.total))
			copy(grown, fb.data)
			fb.data = grown
		}
		fb.data = append(fb.data, req.Data...)
	default:
		// Gap: tell the client where to resume (§4.3.5).
	}
	return wire.PutFragmentRep{Received: int64(len(fb.data))}, nil
}

func (s *Server) reintegrate(src string, sc obs.SpanContext, req wire.Reintegrate) (wire.ReintegrateRep, error) {
	v, ok := s.volByID(req.Volume)
	if !ok {
		return wire.ReintegrateRep{}, fmt.Errorf("no volume %d", req.Volume)
	}
	s.stats.reintegrations.Add(1)
	s.observeVolOp(v)

	// One traced chunk is one server_apply span: fragment attach, dedup,
	// delta reconstruction, validation, journaling, and commit.
	applyCtx := obs.SpanContext{}
	if sc.Valid() {
		sp := s.obs.StartSpan(s.addr, "server_apply", sc)
		applyCtx = sp.Context()
		defer sp.End()
	}

	// Attach fragment data under the fragment lock, before entering the
	// volume domain (fragMu and volume locks never nest). The server does
	// not logically attempt reintegration until whole files have arrived
	// (§4.3.5). A store's effect adopts the buffer as the contents: it is
	// never larger than Total, so a complete one is exactly the file, and
	// nothing appends to it once complete (putFragment refuses data past
	// Total).
	recs := req.Records
	var usedFrags []fragKey
	s.fragMu.Lock()
	for idx, tid := range req.Fragments {
		if idx < 0 || idx >= len(recs) {
			s.fragMu.Unlock()
			return wire.ReintegrateRep{}, fmt.Errorf("fragment index %d out of range", idx)
		}
		k := fragKey{client: src, transfer: tid}
		fb := s.frags[k]
		if fb == nil || int64(len(fb.data)) != fb.total {
			s.fragMu.Unlock()
			return wire.ReintegrateRep{}, fmt.Errorf("fragment transfer %d incomplete", tid)
		}
		recs[idx].Data = fb.data[:fb.total:fb.total]
		recs[idx].Length = fb.total
		usedFrags = append(usedFrags, k)
	}
	s.fragMu.Unlock()

	rep := wire.ReintegrateRep{Results: make([]wire.RecordResult, len(recs))}

	s.lockVolume(v)

	// Failover retransmit dedup: a client that timed out against one
	// member retries the same chunk against another, but the first
	// member may have applied it and shipped it here already. Records
	// the volume has applied — identified by (client, CML sequence) —
	// are acknowledged without re-applying, so duplicate delivery is
	// idempotent and bumps no stamps. keep maps compact (live) record
	// indices back to the client's original indices.
	keep := make([]int, 0, len(recs))
	var dupFIDs []codafs.FID
	for i := range recs {
		if v.isAppliedLocked(src, recs[i].Seq) {
			rep.Results[i] = wire.RecordResult{OK: true, Msg: "duplicate: already applied"}
			dupFIDs = append(dupFIDs, recs[i].FID)
			continue
		}
		keep = append(keep, i)
	}
	deltas := req.Deltas
	if len(dupFIDs) > 0 {
		s.stats.duplicatesDropped.Add(int64(len(dupFIDs)))
		if len(keep) == 0 {
			// The whole chunk is a retransmit of applied work: ack it as
			// such, with the current statuses of the touched objects so
			// the client's cache converges exactly as the lost ack would
			// have left it.
			rep.Applied = true
			rep.Statuses = appendFIDStatuses(rep.Statuses, v, dupFIDs)
			rep.VolStamp = v.info.Stamp
			v.mu.Unlock()
			s.dropFragments(usedFrags)
			return rep, nil
		}
		compact := make([]cml.Record, len(keep))
		deltas = make(map[int]delta.Delta, len(req.Deltas))
		for ni, oi := range keep {
			compact[ni] = recs[oi]
			if dd, ok := req.Deltas[oi]; ok {
				deltas[ni] = dd
			}
		}
		recs = compact
	}

	// Reconstruct delta-shipped stores against the server's current
	// contents (§4.1's "ship file differences" enhancement). A base
	// mismatch fails the chunk atomically; the client retries with full
	// contents. Indices are applied in ascending order so which failure
	// surfaces (and the hash-verified reconstruction order) never
	// depends on map iteration.
	deltaIdx := make([]int, 0, len(deltas))
	for idx := range deltas {
		deltaIdx = append(deltaIdx, idx)
	}
	sort.Ints(deltaIdx)
	for _, idx := range deltaIdx {
		dd := deltas[idx]
		if idx < 0 || idx >= len(recs) || recs[idx].Kind != cml.Store {
			v.mu.Unlock()
			return wire.ReintegrateRep{}, fmt.Errorf("delta index %d invalid", idx)
		}
		obj, ok := v.objects[recs[idx].FID]
		if !ok {
			rep.Results[keep[idx]] = wire.RecordResult{Conflict: true, Msg: "delta store: object removed on server"}
			rep.VolStamp = v.info.Stamp
			v.mu.Unlock()
			s.stats.reintegrationFails.Add(1)
			return rep, nil
		}
		newData, err := delta.Apply(obj.Data, dd)
		if err != nil {
			rep.Results[keep[idx]] = wire.RecordResult{DeltaFailed: true, Msg: err.Error()}
			rep.VolStamp = v.info.Stamp
			v.mu.Unlock()
			s.stats.reintegrationFails.Add(1)
			return rep, nil
		}
		recs[idx].Data = newData
		recs[idx].Length = int64(len(newData))
	}

	// What remains is a batch like any other (fragments attached, deltas
	// already applied, duplicates compacted out), so what is journaled is
	// the reconstructed records and replay needs neither fragment buffers
	// nor delta bases. A validation failure is atomic — nothing applied,
	// fragments kept so a retry need not reship them — and a journal
	// failure aborts the chunk the same way: the client retries.
	//codalint:ignore lockhold journal-first commit: v.mu must cover the batch append so a concurrent apply to this volume cannot reorder LSNs
	failed, res, statuses, breaks, err := applyBatchLocked(v, src, recs, batchLive, 0, applyCtx)
	if err != nil || failed >= 0 {
		rep.VolStamp = v.info.Stamp
		v.mu.Unlock()
		s.stats.reintegrationFails.Add(1)
		if err != nil {
			return wire.ReintegrateRep{}, err
		}
		for _, oi := range keep[:failed] {
			rep.Results[oi] = okResult
		}
		rep.Results[keep[failed]] = res
		for _, oi := range keep[failed+1:] {
			rep.Results[oi] = wire.RecordResult{Msg: "not attempted"}
		}
		if res.Conflict {
			s.stats.conflicts.Add(1)
		}
		return rep, nil
	}
	for _, oi := range keep {
		rep.Results[oi] = okResult
	}
	statuses = appendFIDStatuses(statuses, v, dupFIDs)
	rep.VolStamp = v.info.Stamp
	v.mu.Unlock()

	s.stats.recordsApplied.Add(int64(len(recs)))
	s.dropFragments(usedFrags)

	rep.Applied = true
	rep.Statuses = statuses

	// Breaks go out with no lock held at all.
	s.dispatchBreaks(breaks)
	s.shipToPeers(v, sc)
	return rep, nil
}

// appendFIDStatuses appends the current status of each listed object not
// already present in statuses — the reply statuses for duplicate records,
// whose objects were touched by an earlier delivery. Caller holds v.mu.
func appendFIDStatuses(statuses []codafs.Status, v *volume, fids []codafs.FID) []codafs.Status {
	if len(fids) == 0 {
		return statuses
	}
	have := make(map[codafs.FID]bool, len(statuses))
	for _, st := range statuses {
		have[st.FID] = true
	}
	for _, fid := range fids {
		if have[fid] {
			continue
		}
		have[fid] = true
		if o, ok := v.objects[fid]; ok {
			statuses = append(statuses, o.Status)
		}
	}
	return statuses
}

// dropFragments discards consumed fragment buffers.
func (s *Server) dropFragments(keys []fragKey) {
	if len(keys) == 0 {
		return
	}
	s.fragMu.Lock()
	for _, k := range keys {
		delete(s.frags, k)
	}
	s.fragMu.Unlock()
}
