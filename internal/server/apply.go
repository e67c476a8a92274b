package server

import (
	"fmt"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/obs"
	"repro/internal/wire"
)

// applyCtx stages one batch against one volume's object store, the
// cml.Objects records are applied to, all or nothing (§4.3.3). Every
// object the batch names gets a slot in saved: an object the volume
// holds is changed in place, its prior status, contents and target saved
// in the slot first; an object the batch makes or drops is held in the
// slot until commit. Before each record's effect, the prior binding of
// each directory entry it changes is saved too. A batch that does not
// commit is undone from the slots, leaving the volume as it was; a batch
// that commits is installed by commitApply. No reader of v.objects sees
// a batch half done, because every one of them (fetch, lookup, the
// image, a delta's base) holds v.mu, which covers a batch from staging
// to commit or undo. Each volume keeps one, used under its mu and emptied
// after every batch, so handing it to Apply as an interface allocates
// nothing, and neither do its slots once they have grown to the volume's
// largest batch.
type applyCtx struct {
	v       *volume
	slots   map[codafs.FID]int // index in saved of every object the batch named
	saved   []savedObj
	entries []savedEntry
	touched []codafs.FID
	done    bool // committed: nothing to undo
}

// savedObj is one object as the batch found it — live is the volume's
// object (nil if it held none), followed by the fields an effect changes
// in place but its entries — and, once made is set, obj, what the batch
// put in its place (nil if it dropped it). stamped marks it installed by
// commitApply, which sees each object once however often the batch
// touched it.
type savedObj struct {
	live    *codafs.Object
	status  codafs.Status
	data    []byte
	target  string
	made    bool
	obj     *codafs.Object
	stamped bool
}

// savedEntry is what name in directory dir named before a record's
// effect: fid, or nothing if it is zero.
type savedEntry struct {
	dir  codafs.FID
	name string
	fid  codafs.FID
}

// overlaySlots is how many objects and entries a volume's applyCtx is
// sized for when it is made; a larger batch grows it once, for good.
const overlaySlots = 8

// peek returns the batch's view of fid, nil if it is not there, for
// reading only: it takes no slot.
func (a *applyCtx) peek(fid codafs.FID) *codafs.Object {
	if i, ok := a.slots[fid]; ok && a.saved[i].made {
		return a.saved[i].obj
	}
	return a.v.objects[fid]
}

// slot returns fid's slot, saving the volume's object in it on first use.
func (a *applyCtx) slot(fid codafs.FID) *savedObj {
	i, ok := a.slots[fid]
	if !ok {
		i = len(a.saved)
		a.slots[fid] = i
		var s savedObj
		if o := a.v.objects[fid]; o != nil {
			s = savedObj{live: o, status: o.Status, data: o.Data, target: o.Target}
		}
		a.saved = append(a.saved, s)
	}
	return &a.saved[i]
}

// Get returns fid's object for the effect to change in place: one the
// batch made, or the volume's own, saved first.
func (a *applyCtx) Get(fid codafs.FID) *codafs.Object {
	s := a.slot(fid)
	if s.made {
		return s.obj
	}
	return s.live
}

func (a *applyCtx) Touch(fid codafs.FID) {
	a.touched = append(a.touched, fid)
}

func (a *applyCtx) Put(o *codafs.Object) {
	a.replace(o.Status.FID, o)
}

func (a *applyCtx) Drop(fid codafs.FID) {
	a.replace(fid, nil)
}

// replace puts o, or nothing, in fid's place for commitApply to install.
func (a *applyCtx) replace(fid codafs.FID, o *codafs.Object) {
	s := a.slot(fid)
	s.made, s.obj = true, o
	a.Touch(fid)
}

// saveEntries saves, before rec's effect, what each directory entry the
// effect binds or unbinds names now. An entry of a directory the batch
// made or dropped needs none: undo discards that object, or never
// changed it.
func (a *applyCtx) saveEntries(rec *cml.Record) {
	switch rec.Kind {
	case cml.Store, cml.SetAttr:
		return
	case cml.Rename:
		a.saveEntry(rec.NewParent, rec.NewName)
	}
	a.saveEntry(rec.Parent, rec.Name)
}

func (a *applyCtx) saveEntry(dir codafs.FID, name string) {
	if i, ok := a.slots[dir]; ok && a.saved[i].made {
		return
	}
	if d := a.v.objects[dir]; d != nil {
		a.entries = append(a.entries, savedEntry{dir: dir, name: name, fid: d.Children[name]})
	}
}

// undo puts the volume's objects back as the batch found them: the
// entries in reverse order, then each object's saved fields (which
// include a directory's Length). What the batch made is discarded with
// its slot.
func (a *applyCtx) undo() {
	for i := len(a.entries) - 1; i >= 0; i-- {
		e := &a.entries[i]
		cml.RestoreEntry(a.v.objects[e.dir], e.name, e.fid)
	}
	for i := range a.saved {
		if s := &a.saved[i]; s.live != nil {
			s.live.Status, s.live.Data, s.live.Target = s.status, s.data, s.target
		}
	}
}

// within reports whether fid is dir or lies in dir's subtree, as the
// batch has left it, without taking a slot.
func (a *applyCtx) within(fid, dir codafs.FID) bool {
	if fid == dir {
		return true
	}
	if d := a.peek(dir); d != nil {
		for _, c := range d.Children {
			if a.within(fid, c) {
				return true
			}
		}
	}
	return false
}

func conflict(format string, args ...any) wire.RecordResult {
	return wire.RecordResult{Conflict: true, Msg: fmt.Sprintf(format, args...)}
}

func failure(format string, args ...any) wire.RecordResult {
	return wire.RecordResult{Msg: fmt.Sprintf(format, args...)}
}

var okResult = wire.RecordResult{OK: true}

// versionOK implements the optimistic update/update check: the record's
// PrevVersion must match the server's current version, or the current
// version must itself be the reintegrating client's own earlier work
// (storeid rule), since its later records were logged against local state.
func versionOK(a *applyCtx, fid codafs.FID, prev uint64, client string) bool {
	base, ok := a.v.objects[fid]
	if !ok {
		// Object created inside this same batch: trivially current.
		return true
	}
	if base.Status.Version == prev {
		return true
	}
	return a.v.lastAuthor[fid] == client
}

// admitRecord is the server's admission check for rec against the
// volume as the records before it in the batch left it: conflicts
// (optimistic replica control, §4.3.3), failures, version stamps, names
// and types. It changes nothing; what an admitted record does is
// rec.Apply's. The whole pipeline runs inside one volume's domain: the
// caller holds a.v.mu and nothing else.
func admitRecord(a *applyCtx, rec *cml.Record, client string) wire.RecordResult {
	k := rec.Kind
	switch k {
	case cml.Store, cml.SetAttr:
		o := a.Get(rec.FID)
		switch {
		case o == nil:
			return conflict("%s %s: object removed on server", k, rec.FID)
		case k == cml.Store && o.Status.Type != codafs.File:
			return failure("store %s: not a file", rec.FID)
		case !versionOK(a, rec.FID, rec.PrevVersion, client):
			return conflict("%s %s: update/update conflict", k, rec.FID)
		}
	case cml.Create, cml.Mkdir, cml.MakeSymlink:
		// Name first: a create whose reply was lost comes back with its
		// name taken (a create/create conflict), not just its FID in use.
		if res := a.enterable(k, rec.Parent, rec.Name); !res.OK {
			return res
		}
		if a.Get(rec.FID) != nil || rec.FID.Volume != a.v.info.ID {
			return failure("%s %q: fid %s in use or outside volume %d", k, rec.Name, rec.FID, a.v.info.ID)
		}
	case cml.Link:
		if o := a.Get(rec.FID); o == nil {
			return conflict("link %q: target %s gone", rec.Name, rec.FID)
		} else if o.Status.Type == codafs.Directory {
			return failure("link %q: cannot hard-link a directory", rec.Name)
		}
		return a.enterable(k, rec.Parent, rec.Name)
	case cml.Remove, cml.Rmdir:
		if res := a.names(k, rec.Parent, rec.Name, rec.FID); !res.OK {
			return res
		}
		o := a.Get(rec.FID)
		switch {
		case o == nil || (o.Status.Type == codafs.Directory) != (k == cml.Rmdir):
			return failure("%s %q: wrong object type", k, rec.Name)
		case len(o.Children) > 0:
			return conflict("rmdir %q: directory not empty on server", rec.Name)
		case k == cml.Remove && rec.PrevVersion != 0 && !versionOK(a, rec.FID, rec.PrevVersion, client):
			// Removing an object another client has since updated is a
			// remove/update conflict. A connected-mode RemoveOp carries
			// no version, so skips the check.
			return conflict("remove %q: object updated on server (remove/update conflict)", rec.Name)
		}
	case cml.Rename:
		if res := a.names(k, rec.Parent, rec.Name, rec.FID); !res.OK {
			return res
		}
		if res := a.enterable(k, rec.NewParent, rec.NewName); !res.OK {
			return res
		}
		if a.within(rec.NewParent, rec.FID) {
			return failure("rename %q: into its own subtree", rec.Name)
		}
	default:
		return failure("unknown record kind %v", k)
	}
	return okResult
}

// enterable admits entering name in directory dir: dir is there and a
// directory, and name is a valid entry name that it does not hold yet.
func (a *applyCtx) enterable(k cml.Kind, dir codafs.FID, name string) wire.RecordResult {
	d := a.Get(dir)
	switch {
	case d == nil:
		return conflict("%s %q: directory %s gone", k, name, dir)
	case d.Status.Type != codafs.Directory:
		return failure("%s %q: %s not a directory", k, name, dir)
	case !codafs.ValidName(name):
		return failure("%s: invalid name %q", k, name)
	}
	if _, taken := d.Children[name]; taken {
		return conflict("%s %q: name already exists (%s/create conflict)", k, name, k)
	}
	return okResult
}

// names admits a record that acts on what name in directory dir names:
// dir is there and name still names fid.
func (a *applyCtx) names(k cml.Kind, dir codafs.FID, name string, fid codafs.FID) wire.RecordResult {
	d := a.Get(dir)
	if d == nil {
		return conflict("%s %q: directory %s gone", k, name, dir)
	}
	if now, ok := d.Children[name]; !ok {
		return conflict("%s %q: name missing (%s/remove conflict)", k, name, k)
	} else if now != fid {
		return conflict("%s %q: name now names %s (%s/update conflict)", k, name, now, k)
	}
	return okResult
}

// batchMode says how a journaled batch reached the volume, which decides
// whether its framing is checked against a shipper's chain.
type batchMode uint8

const (
	batchLive batchMode = iota // from a client: journal, then commit
	batchPeer                  // a peer's log entry: as live, but its framing must reach the shipper's chain before it is journaled
)

// applyBatchLocked is the server's one update pipeline for a batch that
// is journaled here — a connected-mode request, a reintegrated chunk, a
// peer's log entry: stage it (stageLocked), journal it, commit. All or
// nothing: a record that fails admission is reported as failed, its
// index, and res, its result; a journal failure is err (an update must be
// durable before it is visible or acknowledged); either way the volume is
// untouched. Otherwise failed is -1, statuses are the new statuses of
// every touched object and breaks the callback breaks to deliver once
// v.mu, which the caller holds, is released.
func applyBatchLocked(v *volume, client string, recs []cml.Record, mode batchMode, wantChain uint32, sc obs.SpanContext) (failed int, res wire.RecordResult, statuses []codafs.Status, breaks []breakWork, err error) {
	defer v.overlay.end()
	if failed, res = stageLocked(v, client, recs); failed < 0 {
		if err = journalBatchLocked(v, client, recs, mode, wantChain, sc); err == nil {
			statuses, breaks = commitApply(&v.overlay, client)
		}
	}
	return failed, res, statuses, breaks, err
}

// commitBatchLocked is applyBatchLocked without the journal step, the
// route of the batches not journaled here: this volume's own WAL at
// recovery (journaled already) and the administrative writes (never
// journaled or replicated).
func commitBatchLocked(v *volume, client string, recs []cml.Record) (failed int, res wire.RecordResult, statuses []codafs.Status, breaks []breakWork) {
	defer v.overlay.end()
	if failed, res = stageLocked(v, client, recs); failed < 0 {
		statuses, breaks = commitApply(&v.overlay, client)
	}
	return failed, res, statuses, breaks
}

// stageLocked admits each record in order (admitRecord) and applies it
// (cml.Record.Apply) through the volume's applyCtx, for the caller to
// commit or, by ending the batch uncommitted, undo. It returns the
// index and result of the first record refused, or -1. Caller holds
// v.mu.
func stageLocked(v *volume, client string, recs []cml.Record) (failed int, res wire.RecordResult) {
	a := &v.overlay
	if a.v == nil {
		*a = applyCtx{
			v:       v,
			slots:   make(map[codafs.FID]int, overlaySlots),
			saved:   make([]savedObj, 0, overlaySlots),
			entries: make([]savedEntry, 0, overlaySlots),
		}
	}
	for i := range recs {
		if res = admitRecord(a, &recs[i], client); !res.OK {
			return i, res
		}
		a.saveEntries(&recs[i])
		recs[i].Apply(a)
	}
	return -1, res
}

// end finishes the batch: undone unless commitApply installed
// it — a record refused, or the journal write failed — and then emptied,
// dropping its hold on saved contents.
func (a *applyCtx) end() {
	if !a.done {
		a.undo()
	}
	clear(a.slots)
	clear(a.saved)
	a.saved = a.saved[:0]
	clear(a.entries)
	a.entries = a.entries[:0]
	a.touched = a.touched[:0]
	a.done = false
}

// commitApply installs the staged batch into the volume — the only
// installer of objects but a volume's creation and an image install —
// stamping each touched object, once, with the next volume stamp, and
// returns their new statuses plus the callback breaks to deliver (after
// a.v.mu is released). Must be called with a.v.mu held.
func commitApply(a *applyCtx, client string) (statuses []codafs.Status, breaks []breakWork) {
	a.done = true
	for _, fid := range a.touched {
		s := a.slot(fid) // an object only touched (moved by a rename) gets its slot here
		if s.stamped {
			continue
		}
		s.stamped = true

		breaks = append(breaks, a.v.collectBreaksLocked(fid, client))
		obj := s.obj
		if s.made && obj == nil {
			delete(a.v.objects, fid)
			delete(a.v.lastAuthor, fid)
			delete(a.v.objCallbacks, fid)
			a.v.info.Stamp++
			continue
		}
		if !s.made {
			// The volume's own object, changed in place or only touched
			// (e.g. the object moved by a rename).
			if obj = s.live; obj == nil {
				continue
			}
		}
		a.v.info.Stamp++
		obj.Status.Version = a.v.info.Stamp
		a.v.objects[fid] = obj
		if client != "" {
			a.v.lastAuthor[fid] = client
		} else {
			delete(a.v.lastAuthor, fid)
		}
		statuses = append(statuses, obj.Status)
	}
	return statuses, breaks
}
