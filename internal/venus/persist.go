package venus

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"

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

// stateImage is the durable state: the journal watermark, the HDB and
// each mounted volume's CML by name. lsn is the watermark of the
// attached journal at snapshot time — WAL entries at or below it are
// already reflected in the image and must not be replayed over it — and
// zero when the image stands alone.
type stateImage struct {
	lsn  uint64
	hdb  map[string]*HDBEntry
	logs map[string]*cml.Log
}

// walk codes the image (DESIGN.md "Wire, journal and image formats"):
// magic and version, the watermark, the HDB in ascending path order, then
// each volume name in ascending order followed by its CML. The crash
// matrices compare images byte for byte, so identical states serialize
// identically. A decoded CML is checked by cml.Load.
func (img *stateImage) walk(c *wire.Coder) {
	c.Magic(imageMagic)
	c.Uvarint(&img.lsn)
	byName := func(a, b string) int { return strings.Compare(a, b) }
	wire.Map(c, &img.hdb, 3, byName, func(_ string, e *HDBEntry) (string, *HDBEntry) { // path length, priority, children
		if e == nil {
			e = new(HDBEntry)
		}
		e.walk(c)
		return e.Path, e
	})
	wire.Map(c, &img.logs, 6, byName, func(name string, log *cml.Log) (string, *cml.Log) { // name length, four scalars, record count
		var li cml.Image
		if log != nil {
			li = log.Save()
		}
		c.String(&name)
		c.Uvarint(&li.NextSeq)
		c.Int64(&li.SavedBytes)
		c.Int64(&li.SavedRecs)
		c.Bool(&li.Optimize)
		c.Records(&li.Records)
		if log == nil {
			var err error
			if log, err = cml.Load(li); err != nil {
				c.Fail(fmt.Sprintf("CML for %s: %v", name, err))
			}
		}
		return name, log
	})
}

// image encodes the durable state with the given watermark. The HDB and
// the log pointers are taken under v.mu and encoded outside it: an HDB
// entry is replaced, never mutated, and an encoder only reads what it
// codes; each log guards its own records while Save copies them.
func (v *Venus) image(lsn uint64) []byte {
	v.mu.Lock()
	img := stateImage{lsn: lsn, hdb: maps.Clone(v.hdb), logs: make(map[string]*cml.Log, len(v.volumes))}
	for name, vc := range v.volumes {
		img.logs[name] = vc.log
	}
	v.mu.Unlock()
	c := wire.NewEncoder(nil)
	img.walk(&c)
	return c.Bytes()
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

// decodeImage parses an image: every part validated, nothing installed. A
// truncated or corrupted stream comes back as an error wrapping
// wire.ErrMalformed (a half-written state file must degrade to "start
// fresh or recover from the journal", never crash the client), and
// nothing is allocated for a count the input cannot back.
func decodeImage(data []byte) (stateImage, error) {
	var img stateImage
	c := wire.NewDecoder(data)
	img.walk(&c)
	if err := c.Done(); err != nil {
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
	for name := range img.logs {
		if v.volumes[name] == nil {
			return fmt.Errorf("venus: CML for unmounted volume %q", name)
		}
	}
	for path, e := range img.hdb {
		v.hdb[path] = e
	}
	// Into the mounted log, not over it: Mount configured its cancel
	// observer and the volume's trickle loop already holds the pointer.
	for name, log := range img.logs {
		v.volumes[name].log.Restore(log)
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
