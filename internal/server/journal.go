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
// here every mutation that reaches commitApply is first framed into a
// write-ahead log, so a crashed server recovers to exactly the set of
// updates it acknowledged. The journal is split along the concurrency
// domains of DESIGN.md §8: one meta WAL (under the registry lock)
// records volume creations, and one WAL per volume (under that volume's
// lock) records applied mutation batches — a shared log would re-
// serialize the volumes that the per-volume locking deliberately keeps
// independent.
//
// Replay is deterministic because apply.go takes every timestamp and
// version decision from the records themselves and from volume state;
// the server clock is never consulted during apply. The administrative
// seeding helpers (WriteFile, MakeDir, MakeSymlink) bypass the apply
// pipeline and are NOT journaled: seed volumes before attaching the
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

// Journal payloads are framed with the wire codec's primitives, fields
// in declaration order. The encoding is canonical (one byte string per
// value), which the replication chain relies on: a replica re-frames
// the entry it was shipped and must arrive at the shipper's bytes.

func appendMetaEntry(dst []byte, e metaEntry) []byte {
	dst = wire.AppendUvarint(dst, e.LSN)
	dst = wire.AppendString(dst, e.Name)
	dst = wire.AppendUvarint(dst, uint64(e.ID))
	return wire.AppendTime(dst, e.ModTime)
}

// decodeMetaEntry parses one meta-WAL payload; a payload that is not
// exactly one entry is an error wrapping wire.ErrMalformed.
func decodeMetaEntry(payload []byte) (metaEntry, error) {
	r := wire.NewReader(payload)
	e := metaEntry{LSN: r.Uvarint(), Name: r.String(), ID: codafs.VolumeID(r.Uint32()), ModTime: r.Time()}
	return e, r.Done()
}

// appendVolEntry frames one applied batch.
func appendVolEntry(dst []byte, lsn uint64, client string, recs []cml.Record) []byte {
	dst = wire.AppendUvarint(dst, lsn)
	dst = wire.AppendString(dst, client)
	return wire.AppendRecords(dst, recs)
}

// decodeVolEntry parses one per-volume WAL payload, with the same
// contract as decodeMetaEntry.
func decodeVolEntry(payload []byte) (volEntry, error) {
	r := wire.NewReader(payload)
	e := volEntry{LSN: r.Uvarint(), Client: r.String(), Recs: r.Records()}
	return e, r.Done()
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
		vols, nextVolID, metaLSN, err := decodeImage(image)
		if err != nil {
			return info, fmt.Errorf("server: journal snapshot: %w", err)
		}
		if err := s.install(vols, nextVolID); err != nil {
			return info, err
		}
		sj.meta = wal.JournalAt(metaLSN)
		info.SnapshotLoaded = true
	}

	// Meta WAL: replay volume creations the snapshot predates.
	info.Meta, err = sj.meta.Attach(opts.WAL("meta", s.clock, s.obs, s.addr), func(payload []byte) error {
		e, err := decodeMetaEntry(payload)
		if err != nil {
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
			e, err := decodeVolEntry(payload)
			if err != nil {
				return fmt.Errorf("server: volume %d journal entry: %w", v.info.ID, err)
			}
			info.BatchesReplayed++
			info.RecordsReplayed += len(e.Recs)
			// The batch passed validation when it was journaled, and apply
			// is a pure function of volume state and the records, so a
			// failure here means the journal and snapshot disagree —
			// surfaced, not ignored. Callback state is empty during
			// recovery, so there are no breaks to dispatch.
			if failed, res, _, _, _ := applyBatchLocked(v, e.Client, e.Recs, batchReplay, 0, obs.SpanContext{}); failed >= 0 {
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
// The payload is built in a pooled buffer: the WAL copies it into its
// own frame before Append returns and the chain only folds over it, so
// nothing retains it (TestAllocJournalBatch pins the steady state).
func journalBatchLocked(v *volume, client string, recs []cml.Record, mode batchMode, wantChain uint32, sc obs.SpanContext) error {
	lsn := v.log.Next()
	bp := bufpool.Get(0)
	defer bufpool.Put(bp)
	*bp = appendVolEntry(*bp, lsn, client, recs)
	chain := v.nextChainLocked(*bp)
	if mode == batchPeer && chain != wantChain {
		return fmt.Errorf("%w: volume %d entry %d chain %08x != %08x", ErrDiverged, v.info.ID, lsn, chain, wantChain)
	}
	if err := v.log.Append(*bp, sc); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	v.journaledBytes += int64(len(*bp))
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
	e := metaEntry{LSN: sj.meta.Next(), Name: v.info.Name, ID: v.info.ID, ModTime: modTime}
	//codalint:ignore lockhold journal-first commit: sjMu must cover the meta append so meta-LSN order matches creation order
	if err := sj.meta.Append(appendMetaEntry(nil, e), obs.SpanContext{}); err != nil {
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
	size := 0
	for _, v := range vols {
		v.mu.Lock()
		size += v.imageSizeLocked()
	}
	sj.sjMu.Lock()
	defer func() {
		sj.sjMu.Unlock()
		for i := len(vols) - 1; i >= 0; i-- {
			vols[i].mu.Unlock()
		}
		s.mu.Unlock()
	}()

	img := appendImageHeader(make([]byte, 0, 32+size), s.nextVolID, sj.meta.LSN(), len(vols))
	fenced := []*wal.Journal{&sj.meta}
	for _, v := range vols {
		img = v.appendLocked(img, true)
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
