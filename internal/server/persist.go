package server

import (
	"cmp"
	"fmt"
	"io"

	"repro/internal/codafs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Persistence for server state. Volumes, objects, version stamps, and the
// authorship map survive a restart; callback registrations deliberately do
// not — a restarted server has lost its promises, and clients discover
// that through validation, exactly the crash-recovery story of real Coda
// servers (and why reintegration is atomic: a retry after a crash is safe).

// The image is a walk over the wire codec's Coder (DESIGN.md "Wire,
// journal and image formats" is the field-by-field reference): a magic
// and version, the registry counters, then every volume in ascending ID
// order with its objects, authorship rows and dedup set in ascending key
// order. Every value has one encoding and every sequence one order, so
// identical states produce identical bytes — what lets the crash matrices
// and the replica checks compare servers by SaveState alone — and an
// accepted image re-encodes to the bytes it was read from.

// imageMagic opens every server image: four magic bytes and the format
// version.
const imageMagic = "CODS\x01"

// appliedCompare orders an image's dedup keys; FID.Compare orders its
// object and authorship keys.
func appliedCompare(a, b appliedKey) int {
	return cmp.Or(cmp.Compare[string](a.client, b.client), cmp.Compare(a.seq, b.seq))
}

// serverImage is the state an image carries: the registry counter, the
// meta-WAL watermark (zero outside Checkpoint) and the volumes.
type serverImage struct {
	nextVolID codafs.VolumeID
	metaLSN   uint64
	vols      map[codafs.VolumeID]*volume
}

// walk codes the image. With watermarks, each volume WAL's LSN and the
// chain fingerprint at it are embedded — entries at or below the LSN are
// already reflected in the image, so recovery skips them; without (plain
// SaveState) both are zero and the image stands alone, the same bytes
// whether or not a journal is attached. A decoded volume's watermarks
// anchor its replication state: the retained log restarts empty at the
// watermark, and entries at or below it count as shipped (peers that
// missed them pull, they are never re-pushed).
func (img *serverImage) walk(c *wire.Coder, watermarks bool) {
	c.Magic(imageMagic)
	c.Uint32((*uint32)(&img.nextVolID))
	c.Uvarint(&img.metaLSN)
	names := make(map[string]bool)
	wire.Map(c, &img.vols, 12, cmp.Compare[codafs.VolumeID], func(_ codafs.VolumeID, v *volume) (codafs.VolumeID, *volume) { // twelve one-byte fields at least
		var lsn uint64
		var chain uint32
		decoding := v == nil
		if decoding {
			v = &volume{
				objects:      make(map[codafs.FID]*codafs.Object),
				lastAuthor:   make(map[codafs.FID]string),
				applied:      make(map[appliedKey]bool),
				objCallbacks: make(map[codafs.FID]map[string]bool),
				volCallbacks: make(map[string]bool),
			}
		} else if watermarks {
			lsn, chain = v.log.LSN(), v.chain
		}
		v.walk(c, &lsn, &chain)
		if decoding {
			v.log, v.chain = wal.JournalAt(lsn), chain
			v.replBaseLSN, v.replBaseChain, v.shippedLSN = lsn, chain, lsn
		}
		if names[v.info.Name] {
			c.Fail("duplicate volume name")
		}
		names[v.info.Name] = true
		return v.id(), v
	})
}

// walk codes one volume, straight from its maps; the caller holds v.mu
// when encoding. The dedup set is logical volume state — replicas with
// identical logs hold identical sets — so it is in every image, which
// also keeps retransmits idempotent across a restore.
func (v *volume) walk(c *wire.Coder, lsn *uint64, chain *uint32) {
	c.VolumeInfo(&v.info)
	c.FID(&v.root)
	c.Uvarint(&v.nextVnode)
	c.Uvarint(lsn)
	c.Uint32(chain)
	wire.Map(c, &v.objects, 4, codafs.FID.Compare, func(_ codafs.FID, o *codafs.Object) (codafs.FID, *codafs.Object) { // status mask, data length, entry count, target length
		if o == nil {
			o = new(codafs.Object)
		}
		c.Object(o)
		return o.Status.FID, o
	})
	wire.Map(c, &v.lastAuthor, 4, codafs.FID.Compare, func(fid codafs.FID, who string) (codafs.FID, string) { // three FID components, author length
		c.FID(&fid)
		c.String(&who)
		return fid, who
	})
	wire.Map(c, &v.applied, 2, appliedCompare, func(k appliedKey, _ bool) (appliedKey, bool) { // client length, sequence
		c.String(&k.client)
		c.Uvarint(&k.seq)
		return k, true
	})
}

// encode codes the image into one buffer of its exact size. Caller holds
// every volume lock in img.vols.
func (img *serverImage) encode(watermarks bool) []byte {
	return wire.Sized(func(c *wire.Coder) { img.walk(c, watermarks) })
}

// SaveState writes all volumes to w. It acquires the registry lock, then
// every volume lock in ascending ID order — the canonical lock order, so a
// snapshot cannot deadlock against handlers or a concurrent SaveState —
// and releases the registry lock before encoding; the volume locks are
// held until the whole image is encoded (both of wire.Sized's passes), and
// w is written after the last is dropped. The image is therefore a
// consistent point-in-time cut across all volumes.
func (s *Server) SaveState(w io.Writer) error {
	if _, err := w.Write(s.image()); err != nil {
		return fmt.Errorf("server: save state: %w", err)
	}
	return nil
}

// image encodes the SaveState form of the server: watermarks zero.
func (s *Server) image() []byte {
	s.mu.Lock()
	vols := s.volumesByIDLocked()
	img := serverImage{nextVolID: s.nextVolID, vols: make(map[codafs.VolumeID]*volume, len(vols))}
	for _, v := range vols {
		v.mu.Lock()
		img.vols[v.id()] = v
	}
	s.mu.Unlock()
	b := img.encode(false)
	for _, v := range vols {
		v.mu.Unlock()
	}
	return b
}

// decodeImage parses an image into volumes ready to install. Corrupted
// input — truncated, bit-flipped, written by another format — comes back
// as an error wrapping wire.ErrMalformed, never a panic, and nothing is
// allocated for a count the input cannot back.
func decodeImage(data []byte) (serverImage, error) {
	var img serverImage
	c := wire.NewDecoder(data)
	img.walk(&c, false)
	if err := c.Done(); err != nil {
		return serverImage{}, fmt.Errorf("server: load state: %w", err)
	}
	return img, nil
}

// install publishes decoded volumes in an empty server.
func (s *Server) install(img serverImage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.volumes) > 0 {
		return fmt.Errorf("server: LoadState on a non-empty server")
	}
	s.nextVolID = img.nextVolID
	for _, v := range img.vols {
		s.publishLocked(v)
	}
	return nil
}

// LoadState restores volumes saved by SaveState into a server that has no
// volumes yet. Corrupted images — truncated, bit-flipped, or otherwise —
// come back as errors, never panics.
func (s *Server) LoadState(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("server: load state: %w", err)
	}
	img, err := decodeImage(data)
	if err != nil {
		return err
	}
	return s.install(img)
}
