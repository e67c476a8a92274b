package venus

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/cml"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The client journal makes every CML mutation durable the moment it
// happens, which is what §4.3.1 requires of trickle reintegration:
// "local persistence of updates on a Coda client is assured by the CML",
// kept in RVM by the real Venus. Here the role of RVM is played by a
// write-ahead log (internal/wal): each CML append, each post-
// reintegration drop, and each hoard-database change is framed into the
// WAL before it is applied in memory. Recovery is snapshot + replay —
// the last Checkpoint's snapshot image restores the bulk, and the WAL's
// surviving suffix re-runs everything after it. Replay is deterministic
// because cml.Log.Append assigns sequence numbers and runs the
// optimization rules as pure functions of the log state and the record.

// journalOp tags one WAL entry.
type journalOp uint8

const (
	jAppend journalOp = iota + 1 // a CML append (the input record, pre-Seq)
	jDrop                        // records removed after the server applied them
	jHoardAdd
	jHoardRemove
)

// journalEntry is the payload of one WAL record: LSN, Op, then only the
// fields that op uses, in the order declared here.
type journalEntry struct {
	LSN    uint64
	Op     journalOp
	Volume string     // jAppend, jDrop
	Rec    cml.Record // jAppend: as passed to Append (Seq assigned on replay)
	Now    time.Time  // jAppend: the Append timestamp
	Seqs   []uint64   // jDrop
	HDB    HDBEntry   // jHoardAdd
	Path   string     // jHoardRemove
}

// walk codes the entry. A payload that is not exactly one entry of a
// known op fails to decode with an error wrapping wire.ErrMalformed.
func (e *journalEntry) walk(c *wire.Coder) {
	c.Uvarint(&e.LSN)
	c.Byte((*byte)(&e.Op))
	switch e.Op {
	case jAppend:
		c.String(&e.Volume)
		c.Record(&e.Rec)
		c.Time(&e.Now)
	case jDrop:
		c.String(&e.Volume)
		c.Uvarints(&e.Seqs)
	case jHoardAdd:
		e.HDB.walk(c)
	case jHoardRemove:
		c.String(&e.Path)
	default:
		c.Fail(fmt.Sprintf("unknown journal op %d", e.Op))
	}
}

// walk codes one hoard-database row, for the journal and the state image
// alike.
func (e *HDBEntry) walk(c *wire.Coder) {
	c.String(&e.Path)
	c.Int(&e.Priority)
	c.Bool(&e.Children)
}

// JournalOptions configures AttachJournal (see wal.JournalOptions).
type JournalOptions = wal.JournalOptions

// RecoveryInfo reports what AttachJournal reconstructed.
type RecoveryInfo struct {
	SnapshotLoaded  bool
	EntriesReplayed int
	WAL             wal.RecoveryStats
}

// journal is the attached durability state. Its mutex is held across the
// WAL write AND the in-memory application of each mutation, so the LSN
// order in the journal always matches the order the log saw; it is never
// held while Venus.mu is held by the same goroutine (all journaled call
// sites sit outside Venus.mu).
type journal struct {
	mu   sync.Mutex
	opts JournalOptions
	log  wal.Journal
	err  error // first failure on a best-effort path, healed by Checkpoint
}

// write frames e into the WAL with the next LSN and then, still under
// j.mu, runs commit — the in-memory change e describes, if it is not
// already made — so a Checkpoint can never fall between the two. If the
// write fails commit does not run.
func (j *journal) write(e journalEntry, commit func()) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e.LSN = j.log.Next()
	bp := bufpool.Get(wal.FrameHeader)
	defer bufpool.Put(bp)
	c := wire.NewEncoder((*bp)[:wal.FrameHeader])
	e.walk(&c)
	*bp = c.Bytes()
	//codalint:ignore lockhold journal-first commit: j.mu orders WAL records with the CML and HDB mutations they describe
	if err := j.log.Append(*bp, obs.SpanContext{}); err != nil {
		return err
	}
	if commit != nil {
		commit()
	}
	return nil
}

// AttachJournal recovers durable state from opts.Dir (snapshot + WAL
// replay) and begins journaling every subsequent CML and HDB mutation.
// Volumes must already be mounted — the journal names volumes, it does
// not describe them — so the recovery sequence is New, Mount each
// volume, AttachJournal. A torn WAL tail (crash mid-append) is truncated
// by wal.Open and never replayed.
func (v *Venus) AttachJournal(opts JournalOptions) (RecoveryInfo, error) {
	var info RecoveryInfo
	if v.journalRef() != nil {
		return info, errors.New("venus: journal already attached")
	}
	j := &journal{opts: opts}
	image, ok, err := opts.Snapshot()
	if err != nil {
		return info, fmt.Errorf("venus: %w", err)
	}
	if ok {
		img, err := decodeImage(image)
		if err != nil {
			return info, fmt.Errorf("venus: journal snapshot: %w", err)
		}
		if err := v.installImage(img); err != nil {
			return info, err
		}
		j.log = wal.JournalAt(img.lsn)
		info.SnapshotLoaded = true
	}
	info.WAL, err = j.log.Attach(opts.WAL("wal", v.clock, v.cfg.Obs, ""), func(payload []byte) error {
		var e journalEntry
		c := wire.NewDecoder(payload)
		e.walk(&c)
		if err := c.Done(); err != nil {
			return fmt.Errorf("venus: journal entry: %w", err)
		}
		info.EntriesReplayed++
		return v.replayEntry(e)
	})
	if err != nil {
		return info, fmt.Errorf("venus: journal open: %w", err)
	}

	v.finishRestore()
	v.mu.Lock()
	v.journal = j
	v.mu.Unlock()
	return info, nil
}

// replayEntry re-applies one journal entry to the in-memory logs and
// HDB. Cache reconstruction is deferred to finishRestore so drops
// replayed after appends never leave stale cache state behind.
func (v *Venus) replayEntry(e journalEntry) error {
	switch e.Op {
	case jAppend, jDrop:
		v.mu.Lock()
		vc := v.volumes[e.Volume]
		v.mu.Unlock()
		if vc == nil {
			return fmt.Errorf("venus: journal names unmounted volume %q", e.Volume)
		}
		if e.Op == jAppend {
			vc.log.Append(e.Rec, e.Now)
			return nil
		}
		seqs := make(map[uint64]bool, len(e.Seqs))
		for _, s := range e.Seqs {
			seqs[s] = true
		}
		vc.log.Remove(seqs)
	case jHoardAdd:
		hdb := e.HDB
		v.mu.Lock()
		v.hdb[hdb.Path] = &hdb
		v.mu.Unlock()
	case jHoardRemove:
		v.mu.Lock()
		delete(v.hdb, e.Path)
		v.mu.Unlock()
	default:
		return fmt.Errorf("venus: unknown journal op %d", e.Op)
	}
	return nil
}

// journalRef returns the attached journal, if any.
func (v *Venus) journalRef() *journal {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.journal
}

// logAppend appends rec to vc's CML, making it durable first when a
// journal is attached. rec.Data is shared, not copied: the operation that
// built rec made the one copy (codafs.Object). On journal failure the
// log is left untouched and the error is returned; the caller must not
// apply the mutation locally — an update that cannot be made persistent
// must not exist only in volatile memory, or a crash would silently lose
// it (§4.3.1).
func (v *Venus) logAppend(vc *vclient, rec cml.Record, now time.Time) error {
	j := v.journalRef()
	if j == nil {
		vc.log.Append(rec, now)
		return nil
	}
	err := j.write(journalEntry{Op: jAppend, Volume: vc.info.Name, Rec: rec, Now: now}, func() {
		vc.log.Append(rec, now)
	})
	if err != nil {
		return fmt.Errorf("venus: journal append: %w", err)
	}
	return nil
}

// logDrop journals the removal of seqs from vc's CML after the server
// has durably applied (or rejected as conflicts) those records.
func (v *Venus) logDrop(vc *vclient, seqs map[uint64]bool) {
	j := v.journalRef()
	if j == nil || len(seqs) == 0 {
		return
	}
	list := make([]uint64, 0, len(seqs))
	for s := range seqs {
		list = append(list, s)
	}
	sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
	j.note(journalEntry{Op: jDrop, Volume: vc.info.Name, Seqs: list})
}

// note journals, best-effort, a change that is already made and cannot be
// rolled back: a CML drop (the server's state is authoritative by then) or
// a hoard-database edit (a preference; losing one is an inconvenience, not
// data loss). A failure is remembered and healed by the next Checkpoint,
// whose snapshot captures the state the missed entry described. A nil
// journal (none attached) notes nothing.
func (j *journal) note(e journalEntry) {
	if j == nil {
		return
	}
	if err := j.write(e, nil); err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
	}
}

// Checkpoint writes a durable snapshot carrying the current LSN and
// truncates the WAL — the analogue of an RVM truncation. Appends are
// blocked for the duration (j.mu), so the snapshot and its watermark
// are exactly consistent. A checkpoint also heals a journal degraded by
// a best-effort write failure: the snapshot captures the current state,
// so the missed entry no longer matters.
func (v *Venus) Checkpoint() error {
	j := v.journalRef()
	if j == nil {
		return errors.New("venus: no journal attached")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	//codalint:ignore lockhold checkpoint writes the snapshot and truncates the WAL under j.mu so no journal record can land between image and truncation
	if err := j.opts.Checkpoint(v.image(j.log.LSN()), &j.log); err != nil {
		return fmt.Errorf("venus: %w", err)
	}
	j.err = nil
	return nil
}

// JournalErr reports (without clearing) the first failure on a
// best-effort journaling path since the last successful Checkpoint.
func (v *Venus) JournalErr() error {
	j := v.journalRef()
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// CloseJournal detaches and closes the journal. Subsequent mutations are
// volatile again (tests use this to model an unclean shutdown AFTER a
// point of interest).
func (v *Venus) CloseJournal() error {
	v.mu.Lock()
	j := v.journal
	v.journal = nil
	v.mu.Unlock()
	if j == nil {
		return nil
	}
	// Detached under j.mu, closed (the final flush) outside it, as the
	// server does for its volume WALs: a straggler that still holds j
	// appends to a detached journal, which writes nothing.
	j.mu.Lock()
	w := j.log.Detach()
	j.mu.Unlock()
	return w.Close()
}
