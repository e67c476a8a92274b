package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/crashfs"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Journaled state is the one durability protocol both ends use: a
// directory holds the last checkpoint's snapshot image plus one or more
// logs of entries made since. Every entry's payload opens with its log
// sequence number as a uvarint; the image records each log's LSN at the
// instant it was taken — its watermark. Recovery installs the snapshot,
// seeds each Journal with its watermark and replays the log over it,
// skipping entries at or below the watermark: a crash between making a
// snapshot durable and truncating the logs must not apply them twice.
// What an entry says, how it is applied, what the image holds and which
// lock orders entries with the state they describe belong to the owner.

// JournalOptions places one end's journaled state. Policy mirrors the
// RVM flush discipline: SyncEachRecord for no-loss durability,
// SyncInterval with ~30 s for the paper's flush window (bounded loss,
// §4.3.1), SyncNone for benchmarks.
type JournalOptions struct {
	FS           crashfs.FS
	Dir          string
	Policy       SyncPolicy
	Interval     time.Duration
	SegmentBytes int64
}

func (o JournalOptions) snapshotPath() string { return filepath.Join(o.Dir, "snapshot") }

// WAL returns the Options of the log kept in subdirectory sub.
func (o JournalOptions) WAL(sub string, clock simtime.Clock, reg *obs.Registry, node string) Options {
	return Options{FS: o.FS, Dir: filepath.Join(o.Dir, sub), SegmentBytes: o.SegmentBytes,
		Policy: o.Policy, Interval: o.Interval, Clock: clock, Obs: reg, Node: node}
}

// Snapshot creates the directory if need be and reads the last
// checkpoint's image; ok is false when there is none yet (first boot).
func (o JournalOptions) Snapshot() (image []byte, ok bool, err error) {
	if o.FS == nil || o.Dir == "" {
		return nil, false, errors.New("journal needs FS and Dir")
	}
	if err := o.FS.MkdirAll(o.Dir); err != nil {
		return nil, false, err
	}
	f, err := o.FS.Open(o.snapshotPath())
	if crashfs.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	image, err = io.ReadAll(f)
	return image, err == nil, err
}

// Checkpoint makes image the durable snapshot, then truncates every log
// it fences — the analogue of an RVM truncation. image must carry the
// LSN of each fenced journal, and the caller must hold off appends to
// them from before it encoded image until Checkpoint returns.
func (o JournalOptions) Checkpoint(image []byte, fenced ...*Journal) error {
	if err := crashfs.WriteFileAtomic(o.FS, o.snapshotPath(), image); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, j := range fenced {
		if j.w == nil {
			continue
		}
		if err := j.w.Reset(); err != nil {
			return fmt.Errorf("checkpoint: reset %s: %w", j.w.opts.Dir, err)
		}
	}
	return nil
}

// Journal is one LSN-sequenced log of a journaled state. The zero value
// is detached at LSN 0: appends advance the LSN and write nothing (a
// server volume's LSN is its replication position even unjournaled).
// It is not safe for concurrent use; the owner's lock guards it.
type Journal struct {
	w   *WAL   // nil: detached
	lsn uint64 // last entry appended or replayed, or the snapshot's watermark
}

// JournalAt returns a detached journal whose last entry was lsn — what a
// restored image seeds before Attach.
func JournalAt(lsn uint64) Journal { return Journal{lsn: lsn} }

// LSN is the last entry's sequence number.
func (j *Journal) LSN() uint64 { return j.lsn }

// Next is the sequence number the next entry's payload must open with.
func (j *Journal) Next() uint64 { return j.lsn + 1 }

// Append commits the entry framed with Next: into the WAL when attached
// (durable on return under SyncEachRecord), then the LSN advances. On
// error nothing has changed.
func (j *Journal) Append(payload []byte, sc obs.SpanContext) error {
	if j.w != nil {
		if err := j.w.AppendSpan(payload, sc); err != nil {
			return err
		}
	}
	j.lsn = j.Next()
	return nil
}

// Attach opens the log, replays into apply every entry above the
// journal's current LSN — the snapshot's watermark — and leaves the
// journal attached with its LSN above everything the log or the snapshot
// ever held (the log may be empty after a checkpoint's Reset). A nil
// apply replays nothing.
func (j *Journal) Attach(opts Options, apply func(payload []byte) error) (RecoveryStats, error) {
	watermark := j.lsn
	w, stats, err := Open(opts, func(payload []byte) error {
		lsn, n := binary.Uvarint(payload)
		if n <= 0 {
			return errors.New("journal entry without an LSN")
		}
		if lsn > j.lsn {
			j.lsn = lsn
		}
		if lsn <= watermark || apply == nil {
			return nil // already in the snapshot
		}
		return apply(payload)
	})
	if err != nil {
		return stats, err
	}
	j.w = w
	return stats, nil
}

// Detach stops journaling and returns the WAL (nil if none was attached)
// for the caller to Close; the LSN keeps advancing.
func (j *Journal) Detach() *WAL {
	w := j.w
	j.w = nil
	return w
}
