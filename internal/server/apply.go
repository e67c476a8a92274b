package server

import (
	"fmt"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/obs"
	"repro/internal/wire"
)

// applyCtx is an all-or-nothing overlay over one volume's object store.
// Records are validated and applied against the overlay; nothing reaches
// the volume until commitApply. Dropping the context aborts cleanly, which
// is what makes reintegration atomic (§4.3.3).
type applyCtx struct {
	v       *volume
	objs    map[codafs.FID]*codafs.Object
	deleted map[codafs.FID]bool
	touched []codafs.FID
}

func newApply(v *volume) *applyCtx {
	return &applyCtx{
		v:       v,
		objs:    make(map[codafs.FID]*codafs.Object),
		deleted: make(map[codafs.FID]bool),
	}
}

// get returns the overlay's view of fid, cloning from the base volume on
// first access (status and entries; contents are shared until replaced).
func (a *applyCtx) get(fid codafs.FID) (*codafs.Object, bool) {
	if a.deleted[fid] {
		return nil, false
	}
	if o, ok := a.objs[fid]; ok {
		return o, true
	}
	base, ok := a.v.objects[fid]
	if !ok {
		return nil, false
	}
	c := base.Clone()
	a.objs[fid] = c
	return c, true
}

func (a *applyCtx) touch(fid codafs.FID) {
	a.touched = append(a.touched, fid)
}

func (a *applyCtx) create(o *codafs.Object) {
	a.objs[o.Status.FID] = o
	delete(a.deleted, o.Status.FID)
	a.touch(o.Status.FID)
}

func (a *applyCtx) remove(fid codafs.FID) {
	delete(a.objs, fid)
	a.deleted[fid] = true
	a.touch(fid)
}

func conflict(format string, args ...any) wire.RecordResult {
	return wire.RecordResult{Conflict: true, Msg: fmt.Sprintf(format, args...)}
}

func failure(format string, args ...any) wire.RecordResult {
	return wire.RecordResult{Msg: fmt.Sprintf(format, args...)}
}

var okResult = wire.RecordResult{OK: true}

// refreshDirLen keeps a directory's Length proportional to its entry count
// (~32 bytes per entry), so Venus can estimate fetch costs from status
// information alone (§4.4.1).
func refreshDirLen(o *codafs.Object) {
	if o.Status.Type == codafs.Directory {
		o.Status.Length = int64(len(o.Children)) * 32
	}
}

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

// applyRecord validates rec against the overlay and applies it. The whole
// apply pipeline runs inside one volume's domain: the caller holds a.v.mu
// and nothing else.
func applyRecord(a *applyCtx, rec *cml.Record, client string) wire.RecordResult {
	switch rec.Kind {
	case cml.Store:
		o, ok := a.get(rec.FID)
		if !ok {
			return conflict("store %s: object removed on server", rec.FID)
		}
		if o.Status.Type != codafs.File {
			return failure("store %s: not a file", rec.FID)
		}
		if !versionOK(a, rec.FID, rec.PrevVersion, client) {
			return conflict("store %s: update/update conflict", rec.FID)
		}
		o.Data = rec.Data[:len(rec.Data):len(rec.Data)] // adopted, not copied (codafs.Object); capped against appends
		o.Status.Length = rec.Length
		o.Status.ModTime = rec.ModTime
		a.touch(rec.FID)
		return okResult

	case cml.SetAttr:
		o, ok := a.get(rec.FID)
		if !ok {
			return conflict("setattr %s: object removed on server", rec.FID)
		}
		if !versionOK(a, rec.FID, rec.PrevVersion, client) {
			return conflict("setattr %s: update/update conflict", rec.FID)
		}
		if rec.Mode != 0 {
			o.Status.Mode = rec.Mode
		}
		if !rec.ModTime.IsZero() {
			o.Status.ModTime = rec.ModTime
		}
		a.touch(rec.FID)
		return okResult

	case cml.Create, cml.Mkdir, cml.MakeSymlink:
		parent, ok := a.get(rec.Parent)
		if !ok {
			return conflict("%s %q: parent %s gone", rec.Kind, rec.Name, rec.Parent)
		}
		if parent.Status.Type != codafs.Directory {
			return failure("%s %q: parent not a directory", rec.Kind, rec.Name)
		}
		if !codafs.ValidName(rec.Name) {
			return failure("%s: invalid name %q", rec.Kind, rec.Name)
		}
		if _, taken := parent.Children[rec.Name]; taken {
			return conflict("%s %q: name already exists (create/create conflict)", rec.Kind, rec.Name)
		}
		if _, exists := a.get(rec.FID); exists {
			return failure("%s %q: fid %s in use", rec.Kind, rec.Name, rec.FID)
		}
		if rec.FID.Volume != a.v.info.ID {
			return failure("%s %q: fid %s outside volume %d", rec.Kind, rec.Name, rec.FID, a.v.info.ID)
		}
		o := &codafs.Object{
			Status: codafs.Status{
				FID: rec.FID, ModTime: rec.ModTime, Mode: rec.Mode,
				Owner: rec.Owner, Links: 1,
			},
			Target: rec.Target,
		}
		switch rec.Kind {
		case cml.Create:
			o.Status.Type = codafs.File
			if o.Status.Mode == 0 {
				o.Status.Mode = 0644
			}
		case cml.Mkdir:
			o.Status.Type = codafs.Directory
			o.Children = make(map[string]codafs.FID)
			if o.Status.Mode == 0 {
				o.Status.Mode = 0755
			}
		case cml.MakeSymlink:
			o.Status.Type = codafs.Symlink
			o.Status.Length = int64(len(rec.Target))
		}
		a.create(o)
		parent.Children[rec.Name] = rec.FID
		refreshDirLen(parent)
		a.touch(rec.Parent)
		return okResult

	case cml.Link:
		parent, ok := a.get(rec.Parent)
		if !ok {
			return conflict("link %q: parent gone", rec.Name)
		}
		if _, taken := parent.Children[rec.Name]; taken {
			return conflict("link %q: name already exists", rec.Name)
		}
		o, ok := a.get(rec.FID)
		if !ok {
			return conflict("link %q: target %s gone", rec.Name, rec.FID)
		}
		if o.Status.Type == codafs.Directory {
			return failure("link %q: cannot hard-link a directory", rec.Name)
		}
		o.Status.Links++
		parent.Children[rec.Name] = rec.FID
		refreshDirLen(parent)
		a.touch(rec.FID)
		a.touch(rec.Parent)
		return okResult

	case cml.Remove:
		parent, ok := a.get(rec.Parent)
		if !ok {
			return conflict("remove %q: parent gone", rec.Name)
		}
		fid, ok := parent.Children[rec.Name]
		if !ok {
			return conflict("remove %q: name missing (remove/remove conflict)", rec.Name)
		}
		if !rec.FID.IsZero() && fid != rec.FID {
			return conflict("remove %q: name now names %s (remove/update conflict)", rec.Name, fid)
		}
		o, ok := a.get(fid)
		if !ok {
			return conflict("remove %q: object gone", rec.Name)
		}
		if o.Status.Type == codafs.Directory {
			return failure("remove %q: is a directory", rec.Name)
		}
		// Removing an object another client has since updated is a
		// remove/update conflict (optimistic replica control). A zero
		// PrevVersion (server-side administrative removes) skips the check.
		if rec.PrevVersion != 0 && !versionOK(a, fid, rec.PrevVersion, client) {
			return conflict("remove %q: object updated on server (remove/update conflict)", rec.Name)
		}
		delete(parent.Children, rec.Name)
		refreshDirLen(parent)
		a.touch(rec.Parent)
		if o.Status.Links > 1 {
			o.Status.Links--
			a.touch(fid)
		} else {
			a.remove(fid)
		}
		return okResult

	case cml.Rmdir:
		parent, ok := a.get(rec.Parent)
		if !ok {
			return conflict("rmdir %q: parent gone", rec.Name)
		}
		fid, ok := parent.Children[rec.Name]
		if !ok {
			return conflict("rmdir %q: name missing", rec.Name)
		}
		o, ok := a.get(fid)
		if !ok || o.Status.Type != codafs.Directory {
			return failure("rmdir %q: not a directory", rec.Name)
		}
		if len(o.Children) > 0 {
			return conflict("rmdir %q: directory not empty on server", rec.Name)
		}
		delete(parent.Children, rec.Name)
		refreshDirLen(parent)
		a.touch(rec.Parent)
		a.remove(fid)
		return okResult

	case cml.Rename:
		src, ok := a.get(rec.Parent)
		if !ok {
			return conflict("rename %q: source parent gone", rec.Name)
		}
		fid, ok := src.Children[rec.Name]
		if !ok {
			return conflict("rename %q: source name missing", rec.Name)
		}
		if !rec.FID.IsZero() && fid != rec.FID {
			return conflict("rename %q: source renamed on server", rec.Name)
		}
		dst, ok := a.get(rec.NewParent)
		if !ok {
			return conflict("rename %q: destination parent gone", rec.NewName)
		}
		if dst.Status.Type != codafs.Directory {
			return failure("rename %q: destination not a directory", rec.NewName)
		}
		if _, taken := dst.Children[rec.NewName]; taken {
			return conflict("rename %q: destination name exists", rec.NewName)
		}
		if !codafs.ValidName(rec.NewName) {
			return failure("rename: invalid name %q", rec.NewName)
		}
		delete(src.Children, rec.Name)
		dst.Children[rec.NewName] = fid
		refreshDirLen(src)
		refreshDirLen(dst)
		a.touch(rec.Parent)
		if rec.NewParent != rec.Parent {
			a.touch(rec.NewParent)
		}
		a.touch(fid)
		return okResult

	default:
		return failure("unknown record kind %v", rec.Kind)
	}
}

// batchMode says how a batch reached the volume, which decides the two
// steps of applyBatchLocked that are not common to every route.
type batchMode uint8

const (
	batchLive   batchMode = iota // from a client: journal, then commit
	batchPeer                    // a peer's log entry: as live, but its framing must reach the shipper's chain before it is journaled
	batchReplay                  // read back from this volume's own WAL: already journaled
)

// applyBatchLocked is the server's one update pipeline, whichever way the
// records arrived — a connected-mode request, a reintegrated chunk, a
// peer's log entry, this volume's own WAL at recovery: validate each in
// order against a fresh overlay, journal the batch, commit. All or
// nothing: a record that fails validation is reported as failed, its
// index, and res, its result; a journal failure is err (an update must be
// durable before it is visible or acknowledged); either way the overlay is
// dropped and the volume untouched. Otherwise failed is -1, statuses are
// the new statuses of every touched object and breaks the callback breaks
// to deliver once v.mu, which the caller holds, is released.
func applyBatchLocked(v *volume, client string, recs []cml.Record, mode batchMode, wantChain uint32, sc obs.SpanContext) (failed int, res wire.RecordResult, statuses []codafs.Status, breaks []breakWork, err error) {
	a := newApply(v)
	for i := range recs {
		if res = applyRecord(a, &recs[i], client); !res.OK {
			return i, res, nil, nil, nil
		}
	}
	if mode != batchReplay {
		if err := journalBatchLocked(v, client, recs, mode, wantChain, sc); err != nil {
			return -1, res, nil, nil, err
		}
	}
	statuses, breaks = commitApply(a, client)
	return -1, res, statuses, breaks, nil
}

// commitApply installs the overlay into the volume, bumping versions and
// the volume stamp, and returns the new statuses of every touched object
// plus the callback breaks to deliver (after a.v.mu is released). Must be
// called with a.v.mu held.
func commitApply(a *applyCtx, client string) (statuses []codafs.Status, breaks []breakWork) {
	seen := make(map[codafs.FID]bool)
	for _, fid := range a.touched {
		if seen[fid] {
			continue
		}
		seen[fid] = true

		breaks = append(breaks, a.v.collectBreaksLocked(fid, client))
		if a.deleted[fid] {
			delete(a.v.objects, fid)
			delete(a.v.lastAuthor, fid)
			delete(a.v.objCallbacks, fid)
			a.v.info.Stamp++
			continue
		}
		obj := a.objs[fid]
		if obj == nil {
			// Touched without modification (e.g. the object moved by a
			// rename): bump the base object in place.
			obj = a.v.objects[fid]
			if obj == nil {
				continue
			}
		}
		a.v.objects[fid] = obj
		a.v.bumpLocked(fid, client)
		statuses = append(statuses, obj.Status)
	}
	return statuses, breaks
}
