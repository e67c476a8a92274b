package venus

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/wire"
)

// Persistence for the state that must survive a client crash or restart.
// The paper's Venus keeps the CML in recoverable virtual memory, which is
// what lets trickle reintegration defer propagation for hours: "local
// persistence of updates on a Coda client is assured by the CML" (§4.3.1).
// Here the CML of every volume and the hoard database are serialized
// together; cached file contents are an optimization and are refetched
// rather than persisted. See journal.go for the WAL that keeps the image
// current between snapshots.

// imageMagic opens every Venus image: four magic bytes and the format
// version.
const imageMagic = "CODV\x01"

// SaveState writes the hoard database and every volume's CML to w.
// Call while no reintegration is in flight (e.g. at shutdown); a log is
// saved without its barrier, so an interrupted reintegration is simply
// retried after restart (the server's atomicity makes the retry safe).
func (v *Venus) SaveState(w io.Writer) error {
	if _, err := w.Write(v.image(0)); err != nil {
		return fmt.Errorf("venus: save state: %w", err)
	}
	return nil
}

// image encodes the durable state with the wire codec's primitives
// (DESIGN.md "Wire, journal and image formats"): magic and version, the
// journal watermark, the HDB in ascending path order, then each volume
// name in ascending order followed by its CML. lsn is the watermark of
// the attached journal at snapshot time — WAL entries at or below it are
// already reflected in the image and must not be replayed over it — and
// zero when the image stands alone. The crash matrices compare images
// byte for byte, so identical states must serialize identically.
func (v *Venus) image(lsn uint64) []byte {
	v.mu.Lock()
	paths := make([]string, 0, len(v.hdb))
	for p := range v.hdb {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	img := append([]byte(nil), imageMagic...)
	img = wire.AppendUvarint(img, lsn)
	img = wire.AppendUvarint(img, uint64(len(paths)))
	for _, p := range paths {
		img = appendHDBEntry(img, v.hdb[p])
	}
	names := make([]string, 0, len(v.volumes))
	for name := range v.volumes {
		names = append(names, name)
	}
	sort.Strings(names)
	logs := make([]*cml.Log, len(names))
	for i, name := range names {
		logs[i] = v.volumes[name].log
	}
	v.mu.Unlock()

	img = wire.AppendUvarint(img, uint64(len(names)))
	for i, name := range names {
		li := logs[i].Save()
		img = wire.AppendString(img, name)
		img = wire.AppendUvarint(img, li.NextSeq)
		img = wire.AppendUvarint(img, uint64(li.SavedBytes))
		img = wire.AppendUvarint(img, uint64(li.SavedRecs))
		img = wire.AppendBool(img, li.Optimize)
		img = wire.AppendRecords(img, li.Records)
	}
	return img
}

// stateImage is a decoded image: every part validated, nothing installed.
type stateImage struct {
	lsn     uint64
	hdb     []HDBEntry
	volumes []string   // ascending
	logs    []*cml.Log // aligned with volumes
}

// decodeImage parses what image wrote. A truncated or corrupted stream
// comes back as an error wrapping wire.ErrMalformed (a half-written state
// file must degrade to "start fresh or recover from the journal", never
// crash the client), and nothing is allocated for a count the input
// cannot back. Paths and volume names out of ascending order are
// rejected, not merged.
func decodeImage(data []byte) (stateImage, error) {
	r := wire.NewReader(data)
	for i := 0; i < len(imageMagic); i++ {
		if r.Byte() != imageMagic[i] {
			r.Fail("unrecognised image format")
		}
	}
	img := stateImage{lsn: r.Uvarint()}
	for i, n := 0, r.Count(3); i < n && r.Err() == nil; i++ { // path length, priority, children
		e := readHDBEntry(&r)
		if i > 0 && e.Path <= img.hdb[i-1].Path {
			r.Fail("HDB paths out of order")
		}
		img.hdb = append(img.hdb, e)
	}
	for i, n := 0, r.Count(6); i < n && r.Err() == nil; i++ { // name length, four scalars, record count
		name := r.String()
		if i > 0 && name <= img.volumes[i-1] {
			r.Fail("volume names out of order")
		}
		li := cml.Image{NextSeq: r.Uvarint(), SavedBytes: int64(r.Uvarint()), SavedRecs: int64(r.Uvarint()),
			Optimize: r.Bool(), Records: r.Records()}
		log, err := cml.Load(li)
		if err != nil {
			r.Fail(fmt.Sprintf("CML for %s: %v", name, err))
		}
		img.volumes = append(img.volumes, name)
		img.logs = append(img.logs, log)
	}
	if err := r.Done(); err != nil {
		return stateImage{}, fmt.Errorf("venus: load state: %w", err)
	}
	return img, nil
}

// LoadState restores state saved by SaveState. Volumes must already be
// mounted (Mount re-establishes server identity); an image naming a
// volume that is not mounted is rejected, and a rejected image installs
// nothing. Loaded records reintegrate through the ordinary trickle path
// once their age qualifies (their logged times are preserved, so a
// restart does not reset the aging window).
func (v *Venus) LoadState(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("venus: load state: %w", err)
	}
	img, err := decodeImage(data)
	if err != nil {
		return err
	}
	if err := v.installImage(img); err != nil {
		return err
	}
	v.finishRestore()
	return nil
}

// installImage installs the image's HDB and per-volume CMLs, all or
// nothing. Cache reconstruction is deferred to finishRestore so a journal
// replay can still mutate the logs in between (AttachJournal's recovery
// sequence).
func (v *Venus) installImage(img stateImage) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, name := range img.volumes {
		if v.volumes[name] == nil {
			return fmt.Errorf("venus: CML for unmounted volume %q", name)
		}
	}
	for i := range img.hdb {
		v.hdb[img.hdb[i].Path] = &img.hdb[i]
	}
	// Into the mounted log, not over it: Mount configured its cancel
	// observer and the volume's trickle loop already holds the pointer.
	for i, name := range img.volumes {
		v.volumes[name].log.Restore(img.logs[i])
	}
	return nil
}

// finishRestore replays the restored CML records into the cache so the
// local name space shows the offline work again (the paper's Venus
// persists its whole cache in RVM; here contents travel with the CML),
// re-seats the FID allocator above every restored allocation, and moves
// to write-disconnected if updates are pending.
func (v *Venus) finishRestore() {
	v.mu.Lock()
	for _, vc := range v.volumes {
		for _, rec := range vc.log.Records() {
			v.applyRestoredRecordLocked(rec)
			// FIDs this client minted encode ClientID in the top half of
			// the vnode; continue allocating above the restored ones so a
			// post-recovery create cannot collide with a logged one.
			if rec.FID.Vnode>>32 == uint64(v.cfg.ClientID) {
				if low := rec.FID.Vnode & 0xffffffff; low > v.nextVnode {
					v.nextVnode = low
				}
			}
		}
	}
	v.mu.Unlock()
	// A client restarting with pending updates is not fully synchronized:
	// run write-disconnected until the restored CML drains (the trickle
	// daemon promotes back to hoarding afterwards).
	if v.CMLRecords() > 0 && v.State() == Hoarding {
		v.transition(WriteDisconnected, "restored CML")
	}
}

// applyRestoredRecordLocked re-applies one restored CML record to the local
// cache: objects it created are reinstated, contents it stored become local
// truth, and parent directories regain the entries. Parents not currently
// cached are reconciled when fetched (see overlayPendingLocked).
func (v *Venus) applyRestoredRecordLocked(rec *cml.Record) {
	ensure := func(fid codafs.FID, typ codafs.ObjType) *fso {
		f := v.cache.get(fid)
		if f != nil {
			f.dirty = true
			return f
		}
		obj := &codafs.Object{Status: codafs.Status{
			FID: fid, Type: typ, Version: rec.PrevVersion,
			ModTime: rec.ModTime, Mode: rec.Mode, Owner: rec.Owner, Links: 1,
		}}
		if typ == codafs.Directory {
			obj.Children = make(map[string]codafs.FID)
		}
		return v.cache.install(obj, true)
	}
	addEntry := func(parent codafs.FID, name string, child codafs.FID) {
		if p := v.cache.get(parent); p != nil && p.obj.Children != nil {
			before := p.dataBytes()
			p.obj.Children[name] = child
			p.dirty = true
			v.cache.recharge(p, before)
		}
	}
	dropEntry := func(parent codafs.FID, name string) {
		if p := v.cache.get(parent); p != nil && p.obj.Children != nil {
			before := p.dataBytes()
			delete(p.obj.Children, name)
			p.dirty = true
			v.cache.recharge(p, before)
		}
	}

	switch rec.Kind {
	case cml.Create:
		ensure(rec.FID, codafs.File)
		addEntry(rec.Parent, rec.Name, rec.FID)
	case cml.Mkdir:
		ensure(rec.FID, codafs.Directory)
		addEntry(rec.Parent, rec.Name, rec.FID)
	case cml.MakeSymlink:
		f := ensure(rec.FID, codafs.Symlink)
		f.obj.Target = rec.Target
		addEntry(rec.Parent, rec.Name, rec.FID)
	case cml.Store:
		f := ensure(rec.FID, codafs.File)
		before := f.dataBytes()
		f.obj.Data = rec.Data
		f.obj.Status.Length = rec.Length
		f.placeholder = false
		v.cache.recharge(f, before)
	case cml.SetAttr:
		f := ensure(rec.FID, codafs.File)
		if rec.Mode != 0 {
			f.obj.Status.Mode = rec.Mode
		}
	case cml.Remove, cml.Rmdir:
		dropEntry(rec.Parent, rec.Name)
		v.cache.remove(rec.FID)
	case cml.Link:
		addEntry(rec.Parent, rec.Name, rec.FID)
		if f := v.cache.get(rec.FID); f != nil {
			f.dirty = true
		}
	case cml.Rename:
		dropEntry(rec.Parent, rec.Name)
		addEntry(rec.NewParent, rec.NewName, rec.FID)
		if f := v.cache.get(rec.FID); f != nil {
			f.dirty = true
		}
	}
}
