package server

import (
	"fmt"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/obs"
	"repro/internal/wire"
)

// applyCtx is an all-or-nothing overlay over one volume's object store,
// the cml.Objects records are applied to: objs holds its copies of
// changed objects, and nil for dropped ones. Nothing reaches the volume
// until commitApply; a batch that fails leaves the volume untouched,
// which is what makes reintegration atomic (§4.3.3). Each volume keeps
// one, used under its mu and emptied after every batch, so handing it to
// Apply as an interface allocates nothing.
type applyCtx struct {
	v       *volume
	objs    map[codafs.FID]*codafs.Object
	touched []codafs.FID
}

// peek returns the overlay's view of fid, nil if it is not there,
// without copying it: for reading only.
func (a *applyCtx) peek(fid codafs.FID) *codafs.Object {
	if o, ok := a.objs[fid]; ok {
		return o
	}
	return a.v.objects[fid]
}

// Get returns the overlay's copy of fid to change, cloning it from the
// volume on first access (status and entries; contents are shared until
// replaced).
func (a *applyCtx) Get(fid codafs.FID) *codafs.Object {
	o := a.peek(fid)
	if o != nil && a.objs[fid] != o {
		o = o.Clone()
		a.objs[fid] = o
	}
	return o
}

func (a *applyCtx) Touch(fid codafs.FID) {
	a.touched = append(a.touched, fid)
}

func (a *applyCtx) Put(o *codafs.Object) {
	a.objs[o.Status.FID] = o
	a.Touch(o.Status.FID)
}

func (a *applyCtx) Drop(fid codafs.FID) {
	a.objs[fid] = nil
	a.Touch(fid)
}

// within reports whether fid is dir or lies in dir's subtree, reading
// the overlay without copying it.
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
		// Object created inside this same overlay: trivially current.
		return true
	}
	if base.Status.Version == prev {
		return true
	}
	return a.v.lastAuthor[fid] == client
}

// admitRecord is the server's admission check for rec against the
// overlay, the records before it in the batch applied: conflicts
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
	defer v.overlay.reset()
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
	defer v.overlay.reset()
	if failed, res = stageLocked(v, client, recs); failed < 0 {
		statuses, breaks = commitApply(&v.overlay, client)
	}
	return failed, res, statuses, breaks
}

// stageLocked admits each record in order (admitRecord) and applies it
// (cml.Record.Apply) to the volume's overlay, for the caller to commit or
// drop. It returns the index and result of the first record refused, or
// -1. Caller holds v.mu.
func stageLocked(v *volume, client string, recs []cml.Record) (failed int, res wire.RecordResult) {
	a := &v.overlay
	if a.v == nil {
		*a = applyCtx{v: v, objs: make(map[codafs.FID]*codafs.Object)}
	}
	for i := range recs {
		if res = admitRecord(a, &recs[i], client); !res.OK {
			return i, res
		}
		recs[i].Apply(a)
	}
	return -1, res
}

// reset empties the overlay once its batch is committed or dropped.
func (a *applyCtx) reset() {
	clear(a.objs)
	a.touched = a.touched[:0]
}

// commitApply installs the overlay into the volume — the only installer
// of objects but a volume's creation and an image install — stamping
// each touched object with the next volume stamp, and returns their new
// statuses plus the callback breaks to deliver (after a.v.mu is
// released). Must be called with a.v.mu held.
func commitApply(a *applyCtx, client string) (statuses []codafs.Status, breaks []breakWork) {
	seen := make(map[codafs.FID]bool)
	for _, fid := range a.touched {
		if seen[fid] {
			continue
		}
		seen[fid] = true

		breaks = append(breaks, a.v.collectBreaksLocked(fid, client))
		obj, copied := a.objs[fid]
		if copied && obj == nil {
			delete(a.v.objects, fid)
			delete(a.v.lastAuthor, fid)
			delete(a.v.objCallbacks, fid)
			a.v.info.Stamp++
			continue
		}
		if !copied {
			// Touched without modification (e.g. the object moved by a
			// rename): bump the base object in place.
			if obj = a.v.objects[fid]; obj == nil {
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
