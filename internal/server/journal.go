package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Server-side durability. Real Coda servers keep their metadata in RVM;
// here every client's or peer's mutation (applyBatchLocked) is framed
// into a write-ahead log before commitApply, so a crashed server
// recovers to exactly the set of updates it acknowledged. The journal is
// split along the concurrency domains of DESIGN.md §8: one meta WAL
// (under the registry lock) records volume creations, and one WAL per
// volume (under that volume's lock) records applied mutation batches — a
// shared log would re-serialize the volumes that the per-volume locking
// deliberately keeps independent.
//
// Replay is deterministic because apply.go takes every timestamp and
// version decision from the records themselves and from volume state;
// the server clock is never consulted during apply. The administrative
// seeding helpers (WriteFile, MakeDir, MakeSymlink) run their records
// through replay's route, stage and commit (commitBatchLocked), so they
// are NOT journaled (or replicated): seed volumes before attaching the
// journal, or re-seed on boot.

// metaEntry is one meta-WAL record: a volume creation.
type metaEntry struct {
	LSN     uint64
	Name    string
	ID      codafs.VolumeID
	ModTime time.Time // the root directory's creation time
}

// volEntry is one per-volume WAL record: a batch of records that passed
// validation and committed atomically. Recs are the reconstructed
// records (fragments attached, deltas applied), so replay needs neither
// the fragment buffers nor the delta bases.
type volEntry struct {
	LSN    uint64
	Client string
	Recs   []cml.Record
}

// Journal payloads are walks over the wire codec's Coder, fields in
// declaration order. The encoding is canonical (one byte string per
// value), which the replication chain relies on: a replica re-frames the
// entry it was shipped and must arrive at the shipper's bytes. A payload
// that is not exactly one entry fails to decode with an error wrapping
// wire.ErrMalformed.

func (e *metaEntry) walk(c *wire.Coder) {
	c.Uvarint(&e.LSN)
	c.String(&e.Name)
	c.Uint32((*uint32)(&e.ID))
	c.Time(&e.ModTime)
}

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
	VolumesReplayed int // volume creations replayed from the meta WAL
	BatchesReplayed int // mutation batches replayed from per-volume WALs
	RecordsReplayed int
	Meta            wal.RecoveryStats
	Volumes         wal.RecoveryStats // summed across per-volume WALs
}

// serverJournal is the attached durability state. sjMu guards the meta
// journal; it nests inside s.mu (CreateVolume and Checkpoint hold s.mu
// first). Per-volume journals are guarded by their volume's mu.
type serverJournal struct {
	opts JournalOptions

	sjMu sync.Mutex
	meta wal.Journal
}

func volSub(id codafs.VolumeID) string { return fmt.Sprintf("vol-%d", id) }

// AttachJournal recovers durable server state from opts.Dir and begins
// journaling every subsequent applied mutation and volume creation. It
// must run before the server takes traffic, on a server whose volumes
// (if any) come only from the snapshot and WALs.
func (s *Server) AttachJournal(opts JournalOptions) (RecoveryInfo, error) {
	var info RecoveryInfo
	s.mu.Lock()
	attached := s.journal != nil
	s.mu.Unlock()
	if attached {
		return info, errors.New("server: journal already attached")
	}
	sj := &serverJournal{opts: opts}

	// Snapshot: restores the bulk and carries the LSN watermarks that
	// fence off WAL entries already reflected in it.
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
		sj.meta = wal.JournalAt(img.metaLSN)
		info.SnapshotLoaded = true
	}

	// Meta WAL: replay volume creations the snapshot predates.
	info.Meta, err = sj.meta.Attach(opts.WAL("meta", s.clock, s.obs, s.addr), func(payload []byte) error {
		var e metaEntry
		c := wire.NewDecoder(payload)
		e.walk(&c)
		if err := c.Done(); err != nil {
			return fmt.Errorf("server: meta journal entry: %w", err)
		}
		info.VolumesReplayed++
		return s.replayCreateVolume(e)
	})
	if err != nil {
		return info, fmt.Errorf("server: meta journal open: %w", err)
	}

	// Per-volume WALs: replay applied batches through the same apply
	// pipeline the live path uses, in ascending volume-ID order so the
	// recovery is deterministic. A volume's watermark is the LSN its
	// snapshot installed; zero for one the meta WAL created.
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
	s.journal = sj
	s.mu.Unlock()
	return info, nil
}

// replayCreateVolume re-creates one journaled volume with its recorded
// identity; the clock is not consulted, so replay is reproducible.
func (s *Server) replayCreateVolume(e metaEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.volumes[e.ID]; dup {
		return fmt.Errorf("server: journal re-creates volume %d", e.ID)
	}
	s.publishLocked(newVolume(e.ID, e.Name, e.ModTime))
	if e.ID > s.nextVolID {
		s.nextVolID = e.ID
	}
	return nil
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

// journalCreateLocked records a volume creation in the meta WAL and
// opens the new volume's own WAL. Caller holds s.mu.
func (s *Server) journalCreateLocked(v *volume, modTime time.Time) error {
	sj := s.journal
	if sj == nil {
		return nil
	}
	sj.sjMu.Lock()
	defer sj.sjMu.Unlock()
	c := wire.NewEncoder(make([]byte, wal.FrameHeader))
	(&metaEntry{LSN: sj.meta.Next(), Name: v.info.Name, ID: v.info.ID, ModTime: modTime}).walk(&c)
	//codalint:ignore lockhold journal-first commit: sjMu must cover the meta append so meta-LSN order matches creation order
	if err := sj.meta.Append(c.Bytes(), obs.SpanContext{}); err != nil {
		return err
	}
	//codalint:ignore lockhold the new volume's WAL must exist before the creation is visible; sjMu covers the open
	_, err := v.log.Attach(sj.opts.WAL(volSub(v.info.ID), s.clock, s.obs, s.addr), nil)
	return err
}

// Checkpoint writes a durable snapshot carrying every journal's
// watermark, then truncates all WALs. It holds the registry lock and
// every volume lock for the duration, so mutations and creations are
// blocked and the snapshot is exactly consistent with its watermarks.
func (s *Server) Checkpoint() error {
	s.mu.Lock()
	sj := s.journal
	if sj == nil {
		s.mu.Unlock()
		return errors.New("server: no journal attached")
	}
	vols := s.volumesByIDLocked()
	for _, v := range vols {
		v.mu.Lock()
	}
	sj.sjMu.Lock()
	defer func() {
		sj.sjMu.Unlock()
		for i := len(vols) - 1; i >= 0; i-- {
			vols[i].mu.Unlock()
		}
		s.mu.Unlock()
	}()

	img := (&serverImage{nextVolID: s.nextVolID, metaLSN: sj.meta.LSN(), vols: s.volumes}).encode(true)
	fenced := []*wal.Journal{&sj.meta}
	for _, v := range vols {
		fenced = append(fenced, &v.log)
	}
	//codalint:ignore lockhold checkpoint holds every lock for the duration so the snapshot is exactly consistent with its WAL watermarks and no racing append is truncated
	if err := sj.opts.Checkpoint(img, fenced...); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return nil
}

// CloseJournal detaches the journal and closes every WAL.
func (s *Server) CloseJournal() error {
	s.mu.Lock()
	sj := s.journal
	s.journal = nil
	vols := make([]*volume, 0, len(s.volumes))
	for _, v := range s.volumes {
		vols = append(vols, v)
	}
	s.mu.Unlock()
	if sj == nil {
		return nil
	}
	sj.sjMu.Lock()
	//codalint:ignore lockhold final flush on shutdown; the journal is being detached and no traffic remains
	firstErr := sj.meta.Detach().Close()
	sj.sjMu.Unlock()
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
