package server

import (
	"errors"
	"fmt"
	"maps"

	"repro/internal/bufpool"
	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Server-side durability. Real Coda servers keep their metadata in RVM,
// a checkpoint plus a log; so does this server. Every client's or peer's
// mutation (applyBatchLocked) is framed into a write-ahead log before
// commitApply, so a crashed server recovers to exactly the set of
// updates it acknowledged. There is one WAL per volume, under that
// volume's lock (DESIGN.md §8): a shared log would re-serialize the
// volumes that the per-volume locking deliberately keeps independent. A
// volume creation is not logged: it is a checkpoint whose image already
// holds the new volume (journalCreateLocked).
//
// Replay is deterministic because apply.go takes every timestamp and
// version decision from the records themselves and from volume state;
// the server clock is never consulted during apply. The administrative
// seeding helpers (WriteFile, MakeDir, MakeSymlink) run their records
// through replay's route, stage and commit (commitBatchLocked), so they
// are NOT journaled (or replicated): seed volumes before attaching the
// journal, or re-seed on boot.

// volEntry is one per-volume WAL record: a batch of records that passed
// validation and committed atomically. Recs are the reconstructed
// records (fragments attached, deltas applied), so replay needs neither
// the fragment buffers nor the delta bases.
type volEntry struct {
	LSN    uint64
	Client string
	Recs   []cml.Record
}

// A journal payload is a walk over the wire codec's Coder, fields in
// declaration order. The encoding is canonical (one byte string per
// value), which the replication chain relies on: a replica re-frames the
// entry it was shipped and must arrive at the shipper's bytes. A payload
// that is not exactly one entry fails to decode with an error wrapping
// wire.ErrMalformed.
func (e *volEntry) walk(c *wire.Coder) {
	c.Uvarint(&e.LSN)
	c.String(&e.Client)
	c.Records(&e.Recs)
}

// JournalOptions configures Server.AttachJournal (see wal.JournalOptions).
type JournalOptions = wal.JournalOptions

// RecoveryInfo reports what Server.AttachJournal reconstructed.
type RecoveryInfo struct {
	SnapshotLoaded  bool
	BatchesReplayed int // mutation batches replayed from per-volume WALs
	RecordsReplayed int
	Volumes         wal.RecoveryStats // summed across per-volume WALs
}

func volSub(id codafs.VolumeID) string { return fmt.Sprintf("vol-%d", id) }

// AttachJournal recovers durable server state from opts.Dir and begins
// journaling every subsequent applied mutation and checkpointing every
// volume creation. It must run before the server takes traffic, on a
// server whose volumes (if any) come only from the snapshot and WALs.
func (s *Server) AttachJournal(opts JournalOptions) (RecoveryInfo, error) {
	var info RecoveryInfo
	s.mu.Lock()
	attached := s.journal != nil
	s.mu.Unlock()
	if attached {
		return info, errors.New("server: journal already attached")
	}

	// Snapshot: restores every volume, the ID allocator and the LSN
	// watermarks that fence off WAL entries already reflected in it.
	image, ok, err := opts.Snapshot()
	if err != nil {
		return info, fmt.Errorf("server: %w", err)
	}
	if ok {
		img, err := decodeImage(image)
		if err != nil {
			return info, fmt.Errorf("server: journal snapshot: %w", err)
		}
		if err := s.install(img); err != nil {
			return info, err
		}
		info.SnapshotLoaded = true
	}

	// Per-volume WALs: replay applied batches through the same apply
	// pipeline the live path uses, in ascending volume-ID order so the
	// recovery is deterministic. A volume's watermark is the LSN its
	// snapshot installed. Only the snapshot's volumes have a WAL to
	// replay: a creation is durable once its checkpoint is, and nothing
	// appends to a volume before it is published, so a vol-N/ left by a
	// cut creation holds no entries; the next creation of N reuses it.
	for _, v := range s.volumesByID() {
		v.mu.Lock()
		//codalint:ignore lockhold recovery replay runs before the server takes traffic; the volume lock covers replaying WAL batches into volume state
		stats, err := v.log.Attach(opts.WAL(volSub(v.info.ID), s.clock, s.obs, s.addr), func(payload []byte) error {
			var e volEntry
			c := wire.NewDecoder(payload)
			e.walk(&c)
			if err := c.Done(); err != nil {
				return fmt.Errorf("server: volume %d journal entry: %w", v.info.ID, err)
			}
			info.BatchesReplayed++
			info.RecordsReplayed += len(e.Recs)
			// The batch passed validation when it was journaled, and apply
			// is a pure function of volume state and the records, so a
			// failure here means the journal and snapshot disagree —
			// surfaced, not ignored. Callback state is empty during
			// recovery, so there are no breaks to dispatch.
			if failed, res, _, _ := commitBatchLocked(v, e.Client, e.Recs); failed >= 0 {
				return fmt.Errorf("server: journal replay: record %d (%s) no longer applies: %s",
					failed, e.Recs[failed].Kind, res.Msg)
			}
			// Rebuild the replication state the entry represented: the
			// chain folds over the exact payload bytes, so a replayed
			// server fingerprints identically to one that never crashed.
			v.advanceReplLocked(e.Client, e.LSN, e.Recs, v.nextChainLocked(payload))
			return nil
		})
		// Replayed entries were pushed by the pre-crash process (or will
		// be pulled by peers); recovery does not re-ship them.
		v.shippedLSN = v.log.LSN()
		v.mu.Unlock()
		if err != nil {
			return info, fmt.Errorf("server: volume %d journal open: %w", v.info.ID, err)
		}
		info.Volumes.Records += stats.Records
		info.Volumes.Segments += stats.Segments
		info.Volumes.TornBytes += stats.TornBytes
		info.Volumes.TornSegments += stats.TornSegments
	}

	s.mu.Lock()
	s.journal = &opts
	s.mu.Unlock()
	return info, nil
}

// journalBatchLocked frames an applied batch into v's journal before it
// commits, and advances the volume's replication state. Caller holds
// v.mu. The frame is built even when the journal is detached (Append
// then writes nothing): the payload bytes are what the chain fingerprint
// folds over, so an unjournaled server is still a full replica — the
// LSN sequence IS the replication order. A peer's entry (batchPeer) must
// frame to the shipper's chain, wantChain, and that is compared before
// anything is written: a mismatch — the logs differ somewhere at or
// before this entry, nothing silent to do — leaves WAL, LSN, chain,
// retained log and dedup set untouched.
//
// The entry is encoded behind the WAL's header in a pooled buffer, the
// frame the WAL writes as is; the WAL and the chain only read it, so
// nothing retains it (TestAllocJournalBatch pins the steady state).
func journalBatchLocked(v *volume, client string, recs []cml.Record, mode batchMode, wantChain uint32, sc obs.SpanContext) error {
	lsn := v.log.Next()
	bp := bufpool.Get(wal.FrameHeader)
	defer bufpool.Put(bp)
	c := wire.NewEncoder((*bp)[:wal.FrameHeader])
	(&volEntry{LSN: lsn, Client: client, Recs: recs}).walk(&c)
	*bp = c.Bytes()
	payload := (*bp)[wal.FrameHeader:]
	chain := v.nextChainLocked(payload)
	if mode == batchPeer && chain != wantChain {
		return fmt.Errorf("%w: volume %d entry %d chain %08x != %08x", ErrDiverged, v.info.ID, lsn, chain, wantChain)
	}
	if err := v.log.Append(*bp, sc); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	v.journaledBytes += int64(len(payload))
	v.advanceReplLocked(client, lsn, recs, chain)
	return nil
}

// journalCreateLocked makes v's creation durable before it is visible:
// it opens v's WAL, then checkpoints an image that already holds v and
// whose ID allocator stands at v's ID. On error nothing is published and
// v's WAL is closed again. Caller holds s.mu, so no other creation or
// checkpoint falls between the two.
func (s *Server) journalCreateLocked(v *volume) error {
	if s.journal == nil {
		return nil
	}
	if _, err := v.log.Attach(s.journal.WAL(volSub(v.id()), s.clock, s.obs, s.addr), nil); err != nil {
		return err
	}
	vols := maps.Clone(s.volumes)
	vols[v.id()] = v
	if err := s.checkpointLocked(v.id(), vols); err != nil {
		_ = v.log.Detach().Close() // the creation failed with err; a close error adds nothing
		return err
	}
	return nil
}

// Checkpoint writes a durable snapshot carrying every volume WAL's
// watermark, then truncates those WALs. Creations wait for it on the
// registry lock, mutations on the volume locks (checkpointLocked).
func (s *Server) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return errors.New("server: no journal attached")
	}
	//codalint:ignore lockhold the registry lock holds off creations until the image of every volume is durable
	return s.checkpointLocked(s.nextVolID, s.volumes)
}

// checkpointLocked makes the image of vols, with the ID allocator at next,
// the durable snapshot, then truncates their WALs. Caller holds s.mu. The
// volume locks are taken in ascending ID order and held until the WALs
// are truncated, so the snapshot is exactly consistent with its
// watermarks and no racing append is truncated.
func (s *Server) checkpointLocked(next codafs.VolumeID, vols map[codafs.VolumeID]*volume) error {
	byID := sortedByID(vols)
	fenced := make([]*wal.Journal, len(byID))
	for i, v := range byID {
		v.mu.Lock()
		fenced[i] = &v.log
	}
	img := serverImage{nextVolID: next, vols: vols}
	err := s.journal.Checkpoint(img.encode(true), fenced...)
	for i := len(byID) - 1; i >= 0; i-- {
		byID[i].mu.Unlock()
	}
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// CloseJournal detaches the journal and closes every volume WAL.
func (s *Server) CloseJournal() error {
	s.mu.Lock()
	s.journal = nil
	vols := make([]*volume, 0, len(s.volumes))
	for _, v := range s.volumes {
		vols = append(vols, v)
	}
	s.mu.Unlock()
	var firstErr error
	for _, v := range vols {
		v.mu.Lock()
		w := v.log.Detach()
		v.mu.Unlock()
		if w != nil {
			if err := w.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
