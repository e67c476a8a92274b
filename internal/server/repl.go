package server

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/bufpool"
	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// Log replication (the "replicable state machine" half of the group
// layer; internal/group assembles servers into groups). The per-volume
// journal is the replication log: every committed batch is one entry at
// one LSN, framed by journalBatchLocked whether or not a WAL is
// attached, and fingerprinted by a cumulative CRC32C (chain) over the
// exact payload bytes. Because apply is a deterministic function of
// volume state and the records, replicas that agree on the log agree on
// everything — stamps, versions, authorship — which is what makes
// SaveState images byte-identical across a group.
//
// One rule moves entries between replicas: a member pushes an entry it
// accepted from a client, once, to each peer; everything else is pull.
//
//   - push: after a client commit, the accepting server ships the new
//     suffix to every peer in LSN order (shipVolume). Best-effort — a
//     dead peer is skipped, not waited on — and never relayed by the
//     receiver, so every member must list every other member as a peer.
//   - pull: a lagging replica fetches the missed suffix from a peer
//     (CatchUp → FetchLog), verifying the chain at its own tail first.
//     This is what a restarted replica does after WAL replay, and what
//     a ShipLog receiver triggers on itself when it sees a gap.
//
// Duplicates are handled at two layers. Reintegration ingress filters
// records the volume has already applied, keyed (client, CML sequence
// number) — that is what makes a failover retransmit idempotent: the
// batch the client re-ships to a second member after a timeout was
// usually already pushed there by the first. The LSN/chain gate then
// makes entry delivery itself idempotent and ordered. A chain mismatch
// is divergence — possible only for updates never acknowledged to any
// client — and is surfaced as a loud error, never repaired silently.

// ErrDiverged marks replica divergence: a peer's log entry or chain
// fingerprint contradicts local state. Detection sites wrap it so
// callers (and the divergence hook) can classify without string
// matching; note the remote side of an RPC sees only the string.
var ErrDiverged = errors.New("replica diverged")

// noteDivergence fires the divergence hook when err is (or wraps)
// ErrDiverged. Called at every local detection site — apply of a pushed
// entry, apply during catch-up, and serving a pull whose chain
// disagrees — so a group can count divergence events even though the
// error itself travels to a peer as an opaque string.
func (s *Server) noteDivergence(err error) {
	if s.divergenceHook != nil && errors.Is(err, ErrDiverged) {
		s.divergenceHook()
	}
}

// appliedKey identifies one reintegrated CML record for deduplication.
// Connected-mode records carry sequence 0 and are never tracked; rpc2's
// reply cache already makes those at-most-once per call.
type appliedKey struct {
	client string
	seq    uint64
}

// castagnoli is the CRC32C table used for log chain fingerprints (the
// same polynomial the WAL frames use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fetchLogBatch caps entries per FetchLog reply; the puller loops.
const fetchLogBatch = 128

// Peers returns the configured replica peer addresses.
func (s *Server) Peers() []string { return append([]string(nil), s.peers...) }

// acquireShip takes the volume's ship token, serializing ship and
// catch-up rounds; release with releaseShip. Parking happens on a
// simtime.Queue so a waiter is quiescent under the sim while the holder
// blocks in peer RPCs.
func (s *Server) acquireShip(v *volume) {
	v.mu.Lock()
	if v.shipTok == nil {
		v.shipTok = simtime.NewQueue[struct{}](s.clock)
		v.shipTok.Put(struct{}{})
	}
	tok := v.shipTok
	v.mu.Unlock()
	_, _ = tok.Get()
}

// releaseShip returns the ship token taken by acquireShip.
func (v *volume) releaseShip() { v.shipTok.Put(struct{}{}) }

// nextChainLocked returns the chain fingerprint after an entry whose
// journal framing is payload is appended at the log's tail. Caller holds
// v.mu.
func (v *volume) nextChainLocked(payload []byte) uint32 {
	return crc32.Update(v.chain, castagnoli, payload)
}

// advanceReplLocked folds one committed entry into the volume's
// replication state: the chain fingerprint (chain, from nextChainLocked
// over the entry's journal framing), the retained log suffix, and the
// dedup set. Only a server with peers retains the suffix — nobody can
// FetchLog from one without — so elsewhere the base just follows the
// tail. Caller holds v.mu and has already advanced v.log to lsn.
func (v *volume) advanceReplLocked(client string, lsn uint64, recs []cml.Record, chain uint32) {
	v.chain = chain
	if v.retainLog {
		v.repl = append(v.repl, wire.LogEntry{LSN: lsn, Chain: chain, Client: client, Recs: recs})
	} else {
		v.replBaseLSN, v.replBaseChain = lsn, chain
	}
	for i := range recs {
		if recs[i].Seq != 0 {
			v.applied[appliedKey{client: client, seq: recs[i].Seq}] = true
		}
	}
}

// isAppliedLocked reports whether the volume has already applied the
// client's record with the given CML sequence number. Caller holds v.mu.
func (v *volume) isAppliedLocked(client string, seq uint64) bool {
	return seq != 0 && v.applied[appliedKey{client: client, seq: seq}]
}

// chainAtLocked returns the chain fingerprint after lsn, if the volume
// still knows it (at or after the retained suffix's base). Caller holds
// v.mu.
func (v *volume) chainAtLocked(lsn uint64) (uint32, bool) {
	switch {
	case lsn == v.replBaseLSN:
		return v.replBaseChain, true
	case lsn > v.replBaseLSN && lsn <= v.log.LSN():
		return v.repl[lsn-v.replBaseLSN-1].Chain, true
	}
	return 0, false
}

// shipToPeers pushes v's unshipped log suffix to every peer on a fresh
// goroutine; the committing client never waits on replication (the
// same principle as callback breaks). No lock may be held by callers.
// sc is the span context of the operation that committed the newest
// entry; the asynchronous ship round it triggers is attributed to it.
func (s *Server) shipToPeers(v *volume, sc obs.SpanContext) {
	if len(s.peers) == 0 {
		return
	}
	s.clock.Go(func() { s.shipVolume(v, sc) })
}

// shipVolume pushes the pending suffix (shippedLSN, log LSN] to every
// peer, in LSN order, and loops until no new entries remain. The ship
// token serializes shippers so concurrent commits cannot interleave
// entries out of order on the wire; the volume lock is held only to
// read the suffix. A peer that fails mid-stream is skipped for this
// round — the push is best-effort, the pull side repairs.
func (s *Server) shipVolume(v *volume, sc obs.SpanContext) {
	s.acquireShip(v)
	defer v.releaseShip()
	if sc.Valid() {
		sp := s.obs.StartSpan(s.addr, "server_ship_log", sc)
		if ctx := sp.Context(); ctx.Valid() {
			sc = ctx
		}
		defer sp.End()
	}
	for {
		v.mu.Lock()
		prevChain, _ := v.chainAtLocked(v.shippedLSN)
		pending := v.repl[v.shippedLSN-v.replBaseLSN:]
		if len(pending) == 0 {
			v.mu.Unlock()
			return
		}
		entries := append([]wire.LogEntry(nil), pending...)
		volID := v.info.ID
		v.mu.Unlock()

		// Encoded once for all peers, into frames freed after the last: the
		// chain before an entry is its predecessor's whoever it is sent to.
		// A ShipLog always encodes.
		bodies := make([][]byte, len(entries))
		for i, e := range entries {
			bodies[i], _ = wire.EncodeFrame(wire.ShipLog{Volume: volID, PrevChain: prevChain, Entry: e})
			prevChain = e.Chain
		}
		opts := rpc2.CallOpts{MaxRetries: 4, Span: sc} // a peer that stays silent is left to catch up on its own
		for _, peer := range s.peers {
			for _, body := range bodies {
				rep, err := wire.Call[wire.ShipLogRep](s.node, peer, body, opts)
				if err != nil {
					break // unreachable or refusing; it will pull later
				}
				s.met.replShipped.Inc()
				if rep.NeedCatchUp {
					break
				}
			}
		}
		for _, body := range bodies {
			bufpool.Free(body) // the last peer has been called
		}
		last := entries[len(entries)-1].LSN
		v.mu.Lock()
		if v.shippedLSN < last {
			v.shippedLSN = last
		}
		v.mu.Unlock()
	}
}

// receive is the one receive step for log entries that arrive from a
// peer, pushed (shipLog) or pulled (catchUpVolume); prev is the sender's
// chain before entries[0]. An entry at or below the local LSN is skipped
// (a duplicate push, or a pull that raced one). One that does not extend
// the local log — its LSN is not the next, or the chains before it
// differ — stops the walk and is reported as gap. Anything else is
// applied through the pipeline every update takes, journaling and
// callback breaks included, which is how a break reaches clients attached
// to this member when the write landed on another; a record that does not
// apply, like a chain mismatch, means the logs are not byte-identical and
// is surfaced as divergence. Entries that arrive from a peer count as
// shipped: a member pushes only what it accepted from a client itself.
// Returns the log position reached and the records and journal-payload
// bytes applied.
func (s *Server) receive(v *volume, prev uint32, entries []wire.LogEntry, sc obs.SpanContext) (lsn uint64, recs, bytes int64, gap bool, err error) {
	var breaks []breakWork
	s.lockVolume(v)
	journaled := v.journaledBytes
	for _, e := range entries {
		if e.LSN > v.log.LSN() {
			if gap = e.LSN != v.log.Next() || prev != v.chain; gap {
				break
			}
			// The receive-side apply joins the sender's trace: validation,
			// journaling, and commit of the entry under one span.
			var sp *obs.SpanHandle
			if sc.Valid() {
				sp = s.obs.StartSpan(s.addr, "server_apply", sc)
			}
			//codalint:ignore lockhold journal-first commit: v.mu must cover the entry append so a concurrent apply to this volume cannot reorder LSNs
			failed, res, _, b, aerr := applyBatchLocked(v, e.Client, e.Recs, batchPeer, e.Chain, sp.Context())
			sp.End()
			if failed >= 0 {
				aerr = fmt.Errorf("%w: volume %d entry %d record %d (%s) does not apply: %s", ErrDiverged,
					v.info.ID, e.LSN, failed, e.Recs[failed].Kind, res.Msg)
			}
			if aerr != nil {
				err = aerr
				break
			}
			breaks = append(breaks, b...)
			recs += int64(len(e.Recs))
			v.shippedLSN = e.LSN
		}
		prev = e.Chain
	}
	lsn, bytes = v.log.LSN(), v.journaledBytes-journaled
	v.mu.Unlock()
	s.noteDivergence(err)
	s.dispatchBreaks(breaks)
	return lsn, recs, bytes, gap, err
}

// shipLog handles one pushed log entry from a peer. A gap is answered
// with NeedCatchUp while this server pulls the missing suffix from the
// shipper in the background.
func (s *Server) shipLog(src string, sc obs.SpanContext, req wire.ShipLog) (wire.ShipLogRep, error) {
	v, ok := s.volByID(req.Volume)
	if !ok {
		return wire.ShipLogRep{}, fmt.Errorf("no volume %d", req.Volume)
	}
	s.observeVolOp(v)
	lsn, recs, _, gap, err := s.receive(v, req.PrevChain, []wire.LogEntry{req.Entry}, sc)
	if err != nil {
		return wire.ShipLogRep{}, err
	}
	s.stats.replApplied.Add(recs)
	if gap {
		s.met.replGaps.Inc()
		s.clock.Go(func() { _ = s.catchUpVolume(src, req.Volume, sc) })
	}
	return wire.ShipLogRep{LSN: lsn, NeedCatchUp: gap}, nil
}

// fetchLog serves a peer's pull: the retained suffix after AfterLSN, in
// batches. The caller's chain at AfterLSN must match ours — disagreement
// is divergence, and a suffix older than the retained base (truncated by
// a checkpoint) cannot be served by log shipping at all; both come back
// as errors the puller reports rather than papering over.
func (s *Server) fetchLog(req wire.FetchLog) (wire.FetchLogRep, error) {
	v, ok := s.volByID(req.Volume)
	if !ok {
		return wire.FetchLogRep{}, fmt.Errorf("no volume %d", req.Volume)
	}
	s.lockVolume(v)
	defer v.mu.Unlock()
	rep := wire.FetchLogRep{LSN: v.log.LSN()}
	if req.AfterLSN >= v.log.LSN() {
		return rep, nil // nothing newer here
	}
	if req.AfterLSN < v.replBaseLSN {
		return wire.FetchLogRep{}, fmt.Errorf(
			"volume %d log truncated at %d (checkpoint); cannot serve suffix after %d",
			req.Volume, v.replBaseLSN, req.AfterLSN)
	}
	chain, _ := v.chainAtLocked(req.AfterLSN)
	if chain != req.Chain {
		err := fmt.Errorf("%w: volume %d chain %08x != %08x at entry %d",
			ErrDiverged, req.Volume, chain, req.Chain, req.AfterLSN)
		s.noteDivergence(err)
		return wire.FetchLogRep{}, err
	}
	start := req.AfterLSN - v.replBaseLSN
	end := start + fetchLogBatch
	if n := uint64(len(v.repl)); end > n {
		end = n
	}
	rep.Entries = append([]wire.LogEntry(nil), v.repl[start:end]...)
	return rep, nil
}

// CatchUp pulls every volume's missed log suffix from peer and applies
// it, leaving this server's state byte-identical to the peer's for all
// entries the peer holds. It is what a restarted replica runs after WAL
// replay. Volumes are processed in ascending ID order; an error on any
// volume aborts (divergence and truncated-log conditions must be seen,
// not skipped).
func (s *Server) CatchUp(peer string) error {
	for _, v := range s.volumesByID() {
		if err := s.catchUpVolume(peer, v.id(), obs.SpanContext{}); err != nil {
			return err
		}
	}
	return nil
}

// catchUpVolume pulls one volume's suffix from peer until this server's
// log reaches the peer's. The ship token serializes it against pushes
// we might be making ourselves, so anti-entropy for a volume is
// single-file.
func (s *Server) catchUpVolume(peer string, id codafs.VolumeID, sc obs.SpanContext) error {
	v, ok := s.volByID(id)
	if !ok {
		return fmt.Errorf("server: catch-up: no volume %d", id)
	}
	s.acquireShip(v)
	defer v.releaseShip()
	if sc.Valid() {
		sp := s.obs.StartSpan(s.addr, "server_catch_up", sc)
		if ctx := sp.Context(); ctx.Valid() {
			sc = ctx
		}
		defer sp.End()
	}
	for {
		v.mu.Lock()
		after := v.log.LSN()
		chain := v.chain
		v.mu.Unlock()

		rep, err := wire.Call[wire.FetchLogRep](s.node, peer,
			wire.FetchLog{Volume: id, AfterLSN: after, Chain: chain}, rpc2.CallOpts{Span: sc})
		if err != nil {
			return fmt.Errorf("server: catch-up volume %d from %s: %w", id, peer, err)
		}
		s.met.catchupRounds.Inc()
		if len(rep.Entries) == 0 {
			return nil // caught up (or the peer is the one behind)
		}
		lsn, recs, bytes, gap, err := s.receive(v, chain, rep.Entries, sc)
		s.stats.catchupRecords.Add(recs)
		s.met.catchupBytes.Add(bytes)
		if err != nil {
			return fmt.Errorf("server: catch-up volume %d: %w", id, err)
		}
		if gap {
			return fmt.Errorf("server: catch-up volume %d: entries from %s do not extend the log at %d", id, peer, lsn)
		}
		if lsn >= rep.LSN {
			return nil
		}
	}
}

// VolumeLSN reports a volume's current log position and chain
// fingerprint — what the group layer's replica-lag gauges read.
func (s *Server) VolumeLSN(name string) (lsn uint64, chain uint32, err error) {
	v, ok := s.volByName(name)
	if !ok {
		return 0, 0, fmt.Errorf("server: no volume %q", name)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.log.LSN(), v.chain, nil
}

// VolumePosition is one volume's replication log position.
type VolumePosition struct {
	ID    codafs.VolumeID
	Name  string
	LSN   uint64
	Chain uint32
}

// VolumePositions reports every volume's log position in ascending ID
// order.
func (s *Server) VolumePositions() []VolumePosition {
	vols := s.volumesByID()
	out := make([]VolumePosition, 0, len(vols))
	for _, v := range vols {
		v.mu.Lock()
		out = append(out, VolumePosition{ID: v.info.ID, Name: v.info.Name, LSN: v.log.LSN(), Chain: v.chain})
		v.mu.Unlock()
	}
	return out
}
