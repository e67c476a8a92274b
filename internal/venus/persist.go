package venus

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cml"
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
	names := v.volumeNamesLocked()
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

// volumeNamesLocked returns the mounted volumes' names in ascending order.
func (v *Venus) volumeNamesLocked() []string {
	names := make([]string, 0, len(v.volumes))
	for name := range v.volumes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
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

// finishRestore shows the restored CML records in the cache, volume by
// volume in name order, by the rule that showed them when they were
// logged (showLocked), so the local name space shows the offline work
// again (the paper's Venus persists its whole cache in RVM; here contents
// travel with the CML); it re-seats the FID allocator above every
// restored allocation, and moves to write-disconnected if updates are
// pending.
func (v *Venus) finishRestore() {
	v.mu.Lock()
	for _, name := range v.volumeNamesLocked() {
		for _, rec := range v.volumes[name].log.Records() {
			v.showLocked(rec, nil)
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
