// Package wal implements a generic segmented write-ahead log — the
// reproduction's substitute for the recoverable virtual memory (RVM)
// that backs the CML in real Coda (§4.3.1). Venus and the server journal
// their mutations through it so that a crash at any instant loses
// nothing that was acknowledged, and recovery is snapshot + replay.
//
// On-disk format: each segment file is a sequence of frames
//
//	uint32 LE payload length | uint32 LE CRC-32C(payload) | payload
//
// Segments rotate at a size threshold and are named wal-%016x.seg so a
// lexical sort is the append order. Recovery scans the segments in
// order, hands every intact payload to a caller-supplied apply
// function, and truncates the log at the first bad frame — a torn tail
// from a crash mid-write is cut off, never replayed.
//
// Durability is governed by a pluggable fsync policy: SyncEachRecord
// (every append is durable before it returns), SyncInterval (appends
// are synced when older than a flush window measured on the injected
// simtime clock, mirroring Coda's ~30 s RVM flush), or SyncNone
// (checkpoint-only durability). Checkpoints are the caller's snapshot
// images; after a snapshot is durable, Reset truncates the dead
// segments.
//
// Journal (journal.go) is the journaled-state protocol on top of the
// log — LSN-prefixed entries, the snapshot's watermark fence on replay,
// checkpoint as atomic image then truncation — which Venus and the
// server both use; they supply entry codecs, apply functions and images.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/crashfs"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// SyncPolicy selects when appended records are forced to stable
// storage.
type SyncPolicy int

const (
	// SyncEachRecord syncs the segment after every append. Nothing
	// acknowledged is ever lost; this is the policy the crash matrix
	// assumes when it equates completed operations with durable ones.
	SyncEachRecord SyncPolicy = iota
	// SyncInterval syncs an append only when the previous sync is older
	// than Interval on the injected clock — Coda's RVM flush window: a
	// bounded amount of recent work may be lost, in exchange for far
	// fewer fsyncs on a laptop disk.
	SyncInterval
	// SyncNone never syncs on append; durability comes only from
	// checkpoints (and whatever the OS writes back on its own).
	SyncNone
)

// Options parameterizes Open.
type Options struct {
	// FS is the filesystem the log lives on (crashfs.OS in production,
	// crashfs.Mem under fault injection).
	FS crashfs.FS
	// Dir is the directory holding the segment files.
	Dir string
	// SegmentBytes rotates the active segment once it exceeds this
	// size. Default 1 MiB.
	SegmentBytes int64
	// Policy is the fsync policy. Default SyncEachRecord.
	Policy SyncPolicy
	// Interval is the SyncInterval flush window. Default 30 s (the RVM
	// flush window of §4.3.1).
	Interval time.Duration
	// Clock drives the SyncInterval policy. It must be injected — the
	// log itself never touches the real clock — and is required only
	// for SyncInterval.
	Clock simtime.Clock
	// Obs receives the log's counters (nil: no observability). Counters
	// are aggregate across all WALs sharing a registry: the registry
	// hands every Open the same handles.
	Obs *obs.Registry
	// Node is the span node label AppendSpan records wal_append and
	// wal_fsync spans under (the owning process's address). Only needed
	// when traced appends are expected.
	Node string
}

// RecoveryStats describes what Open found.
type RecoveryStats struct {
	// Records is the number of intact records replayed.
	Records int
	// Segments is the number of segment files scanned.
	Segments int
	// TornBytes is how many trailing bytes were truncated at the first
	// bad frame (0 for a clean log).
	TornBytes int64
	// TornSegments is how many segment files were dropped entirely
	// because they followed the torn point.
	TornSegments int
}

// maxPayload bounds a frame so a corrupt length field cannot demand an
// absurd allocation during recovery.
const maxPayload = 64 << 20

const (
	frameHeader = 8 // length + CRC
	segPrefix   = "wal-"
	segSuffix   = ".seg"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WAL is an open write-ahead log positioned to append.
type WAL struct {
	opts Options
	met  walMetrics

	mu       sync.Mutex
	seg      crashfs.File // active segment (append handle)
	segIdx   uint64       // index of the active segment
	segSize  int64
	lastSync time.Time // SyncInterval bookkeeping
	dirty    bool      // unsynced appends pending
	scratch  []byte    // frame buffer reused across appends (mu serializes them)
}

// walMetrics holds the log's obs handles; all nil (inert) without
// Options.Obs.
type walMetrics struct {
	appends     *obs.Counter
	appendBytes *obs.Counter
	fsyncs      *obs.Counter
	replayed    *obs.Counter
	tornTruncs  *obs.Counter
	tornBytes   *obs.Counter
}

func newWALMetrics(reg *obs.Registry) walMetrics {
	return walMetrics{
		appends:     reg.Counter("wal_appends_total"),
		appendBytes: reg.Counter("wal_append_bytes_total"),
		fsyncs:      reg.Counter("wal_fsyncs_total"),
		replayed:    reg.Counter("wal_replay_records_total"),
		tornTruncs:  reg.Counter("wal_torn_truncations_total"),
		tornBytes:   reg.Counter("wal_torn_bytes_total"),
	}
}

func segName(idx uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, idx, segSuffix) }

func parseSegName(name string) (uint64, bool) {
	if len(name) != len(segPrefix)+16+len(segSuffix) ||
		name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	var idx uint64
	if _, err := fmt.Sscanf(name[len(segPrefix):len(segPrefix)+16], "%016x", &idx); err != nil {
		return 0, false
	}
	return idx, true
}

// Open recovers the log in opts.Dir, replaying every intact record into
// apply in append order, truncating the log at the first bad frame, and
// returns a WAL positioned to append after the last intact record. An
// apply error aborts recovery and is returned.
func Open(opts Options, apply func(payload []byte) error) (*WAL, RecoveryStats, error) {
	if opts.FS == nil || opts.Dir == "" {
		return nil, RecoveryStats{}, errors.New("wal: Options.FS and Options.Dir are required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	if opts.Interval <= 0 {
		opts.Interval = 30 * time.Second
	}
	if opts.Policy == SyncInterval && opts.Clock == nil {
		return nil, RecoveryStats{}, errors.New("wal: SyncInterval requires an injected Clock")
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, RecoveryStats{}, fmt.Errorf("wal: mkdir %s: %w", opts.Dir, err)
	}

	w := &WAL{opts: opts, met: newWALMetrics(opts.Obs)}
	stats, err := w.recover(apply)
	if err != nil {
		return nil, stats, err
	}
	w.met.replayed.Add(int64(stats.Records))
	w.met.tornBytes.Add(stats.TornBytes)
	if stats.TornBytes > 0 || stats.TornSegments > 0 {
		w.met.tornTruncs.Inc()
	}
	if w.opts.Policy == SyncInterval {
		w.lastSync = w.opts.Clock.Now()
	}
	return w, stats, nil
}

// recover scans the segments, replays intact frames, truncates the torn
// tail, and leaves w.seg open for appending.
func (w *WAL) recover(apply func([]byte) error) (RecoveryStats, error) {
	var stats RecoveryStats
	names, err := w.opts.FS.ReadDir(w.opts.Dir)
	if err != nil {
		return stats, fmt.Errorf("wal: list %s: %w", w.opts.Dir, err)
	}
	var segs []uint64
	for _, name := range names {
		if idx, ok := parseSegName(name); ok {
			segs = append(segs, idx)
		}
	}
	// ReadDir returns sorted names and the fixed-width hex encoding
	// makes lexical order numeric order, so segs is ascending.

	if len(segs) == 0 {
		if err := w.startSegment(1); err != nil {
			return stats, err
		}
		return stats, nil
	}

	torn := false
	var lastIdx uint64
	var lastSize int64
	for _, idx := range segs {
		path := w.segPath(idx)
		if torn {
			// Everything after the torn point is unreachable garbage.
			if err := w.opts.FS.Remove(path); err != nil {
				return stats, fmt.Errorf("wal: drop segment %s: %w", path, err)
			}
			stats.TornSegments++
			continue
		}
		stats.Segments++
		good, tornBytes, records, err := w.scanSegment(path, apply)
		if err != nil {
			return stats, err
		}
		stats.Records += records
		if tornBytes > 0 {
			stats.TornBytes = tornBytes
			if err := w.opts.FS.Truncate(path, good); err != nil {
				return stats, fmt.Errorf("wal: truncate %s: %w", path, err)
			}
			torn = true
		}
		lastIdx, lastSize = idx, good
	}
	if stats.TornSegments > 0 || stats.TornBytes > 0 {
		if err := w.opts.FS.SyncDir(w.opts.Dir); err != nil {
			return stats, fmt.Errorf("wal: sync dir after truncation: %w", err)
		}
	}

	// Reopen the last surviving segment for appending. Segment files
	// are append-only and crashfs files are opened at the end by
	// re-creating content: copy the surviving bytes into a fresh file.
	// To avoid rewriting (and because crashfs.File has no O_APPEND
	// open), recovery instead continues in a new segment; the old ones
	// stay read-only until the next checkpoint truncates them.
	next := lastIdx + 1
	if lastSize == 0 && stats.Records == 0 && len(segs) == 1 {
		next = lastIdx // empty log: reuse the first segment slot
	}
	if err := w.startSegment(next); err != nil {
		return stats, err
	}
	return stats, nil
}

// scanSegment replays one segment file. It returns the offset of the
// end of the last intact frame, the number of torn trailing bytes, and
// the record count.
func (w *WAL) scanSegment(path string, apply func([]byte) error) (good int64, torn int64, records int, err error) {
	f, err := w.opts.FS.Open(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: read %s: %w", path, err)
	}
	off := int64(0)
	total := int64(len(data))
	for off < total {
		if total-off < frameHeader {
			return off, total - off, records, nil
		}
		length := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length > maxPayload || off+frameHeader+int64(length) > total {
			return off, total - off, records, nil
		}
		payload := data[off+frameHeader : off+frameHeader+int64(length)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return off, total - off, records, nil
		}
		if apply != nil {
			if err := apply(payload); err != nil {
				return off, 0, records, fmt.Errorf("wal: replay %s at %d: %w", path, off, err)
			}
		}
		off += frameHeader + int64(length)
		records++
	}
	return off, 0, records, nil
}

func (w *WAL) segPath(idx uint64) string { return filepath.Join(w.opts.Dir, segName(idx)) }

// startSegment creates and durably links a fresh active segment.
func (w *WAL) startSegment(idx uint64) error {
	f, err := w.opts.FS.Create(w.segPath(idx))
	if err != nil {
		return fmt.Errorf("wal: create segment %d: %w", idx, err)
	}
	if err := w.opts.FS.SyncDir(w.opts.Dir); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: sync dir for segment %d: %w", idx, err)
	}
	w.seg = f
	w.segIdx = idx
	w.segSize = 0
	return nil
}

// Append frames payload and writes it to the active segment, rotating
// and syncing as the policy dictates. When Append returns nil under
// SyncEachRecord, the record is durable. The frame is built in a
// per-WAL scratch buffer — w.mu already serializes appends — so the
// steady state allocates nothing (TestAllocWALAppend).
func (w *WAL) Append(payload []byte) error {
	var untraced obs.SpanContext
	return w.AppendSpan(payload, untraced)
}

// AppendSpan is Append on behalf of a traced operation: the whole
// append becomes a wal_append span under parent, with the fsync (when
// the policy forces one) as a wal_fsync child — the critical path's
// fsync bucket. An invalid parent makes this exactly Append: no span
// work touches the untraced hot path.
func (w *WAL) AppendSpan(payload []byte, parent obs.SpanContext) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg == nil {
		return errors.New("wal: closed")
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("wal: payload %d exceeds %d", len(payload), maxPayload)
	}
	var syncCtx obs.SpanContext
	if parent.Valid() {
		sp := w.opts.Obs.StartSpan(w.opts.Node, "wal_append", parent)
		syncCtx = sp.Context()
		defer sp.End()
	}

	if w.segSize > 0 && w.segSize+frameHeader+int64(len(payload)) > w.opts.SegmentBytes {
		//codalint:ignore lockhold the WAL mutex is the fsync serialization point: rotation must be ordered with appends
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}

	if need := frameHeader + len(payload); cap(w.scratch) < need {
		w.scratch = make([]byte, max(need, 2*cap(w.scratch)))
	}
	frame := w.scratch[:frameHeader+len(payload)]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)
	if _, err := w.seg.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	w.segSize += int64(len(frame))
	w.dirty = true
	w.met.appends.Inc()
	w.met.appendBytes.Add(int64(len(frame)))

	switch w.opts.Policy {
	case SyncEachRecord:
		//codalint:ignore lockhold the WAL mutex is the fsync serialization point: durable order must equal append order
		return w.syncSpanLocked(syncCtx)
	case SyncInterval:
		now := w.opts.Clock.Now()
		if now.Sub(w.lastSync) >= w.opts.Interval {
			//codalint:ignore lockhold the WAL mutex is the fsync serialization point: durable order must equal append order
			if err := w.syncSpanLocked(syncCtx); err != nil {
				return err
			}
			w.lastSync = now
		}
	case SyncNone:
	}
	return nil
}

// syncSpanLocked is syncLocked with the force-down recorded as a
// wal_fsync span when the append is traced and a sync actually runs.
func (w *WAL) syncSpanLocked(parent obs.SpanContext) error {
	if !parent.Valid() || !w.dirty {
		return w.syncLocked()
	}
	sp := w.opts.Obs.StartSpan(w.opts.Node, "wal_fsync", parent)
	err := w.syncLocked()
	sp.End()
	return err
}

// rotateLocked finishes the active segment (forcing it down — a rotated
// segment is always fully durable) and opens the next one.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.seg.Close(); err != nil {
		return fmt.Errorf("wal: close segment %d: %w", w.segIdx, err)
	}
	return w.startSegment(w.segIdx + 1)
}

func (w *WAL) syncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.seg.Sync(); err != nil {
		return fmt.Errorf("wal: sync segment %d: %w", w.segIdx, err)
	}
	w.dirty = false
	w.met.fsyncs.Inc()
	return nil
}

// Sync forces all appended records to stable storage regardless of
// policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg == nil {
		return errors.New("wal: closed")
	}
	//codalint:ignore lockhold the WAL mutex is the fsync serialization point: Sync flushes under the same order as appends
	return w.syncLocked()
}

// Reset truncates the log after a checkpoint: every segment is removed
// and a fresh one started. Call only once the checkpoint snapshot is
// durable; the caller's snapshot watermark (not this truncation) is
// what protects against replaying pre-checkpoint records if the crash
// lands between snapshot and Reset.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg == nil {
		return errors.New("wal: closed")
	}
	if err := w.seg.Close(); err != nil {
		return fmt.Errorf("wal: close segment %d: %w", w.segIdx, err)
	}
	w.seg = nil
	names, err := w.opts.FS.ReadDir(w.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: list %s: %w", w.opts.Dir, err)
	}
	for _, name := range names {
		if _, ok := parseSegName(name); !ok {
			continue
		}
		if err := w.opts.FS.Remove(filepath.Join(w.opts.Dir, name)); err != nil {
			return fmt.Errorf("wal: remove %s: %w", name, err)
		}
	}
	//codalint:ignore lockhold truncation replaces the log; the lock must exclude appends until the new segment is durable
	if err := w.opts.FS.SyncDir(w.opts.Dir); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	//codalint:ignore lockhold truncation replaces the log; the lock must exclude appends until the new segment is durable
	return w.startSegment(1)
}

// Close syncs and closes the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg == nil {
		return nil
	}
	//codalint:ignore lockhold final flush before close; the lock excludes appends while the log is torn down
	syncErr := w.syncLocked()
	closeErr := w.seg.Close()
	w.seg = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
