package server

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/codafs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Persistence for server state. Volumes, objects, version stamps, and the
// authorship map survive a restart; callback registrations deliberately do
// not — a restarted server has lost its promises, and clients discover
// that through validation, exactly the crash-recovery story of real Coda
// servers (and why reintegration is atomic: a retry after a crash is safe).

// The image is framed with the wire codec's primitives (DESIGN.md "Wire,
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

// fidLess orders FIDs for byte-stable snapshots.
func fidLess(a, b codafs.FID) bool {
	if a.Volume != b.Volume {
		return a.Volume < b.Volume
	}
	if a.Vnode != b.Vnode {
		return a.Vnode < b.Vnode
	}
	return a.Unique < b.Unique
}

func appliedLess(a, b appliedKey) bool {
	if a.client != b.client {
		return a.client < b.client
	}
	return a.seq < b.seq
}

// sortedKeys returns m's keys in ascending order: the one place map
// order is laundered before it reaches an image.
func sortedKeys[K comparable, V any](m map[K]V, less func(a, b K) bool) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	return keys
}

// appendImageHeader opens an image: magic and version, the registry
// counter, the meta-WAL watermark (zero outside Checkpoint), then the
// volume count.
func appendImageHeader(dst []byte, nextVolID codafs.VolumeID, metaLSN uint64, volumes int) []byte {
	dst = append(dst, imageMagic...)
	dst = wire.AppendUvarint(dst, uint64(nextVolID))
	dst = wire.AppendUvarint(dst, metaLSN)
	return wire.AppendUvarint(dst, uint64(volumes))
}

// appendLocked appends one volume, straight from its maps. Caller holds
// v.mu. With watermarks, the volume WAL's LSN and the chain fingerprint
// at it are embedded — entries at or below the LSN are already reflected
// in the image, so recovery skips them; without (plain SaveState) both
// are zero and the image stands alone, the same bytes whether or not a
// journal is attached. The dedup set is logical volume state — replicas
// with identical logs hold identical sets — so it is in every image,
// which also keeps retransmits idempotent across a restore.
func (v *volume) appendLocked(dst []byte, watermarks bool) []byte {
	dst = wire.AppendVolumeInfo(dst, &v.info)
	dst = wire.AppendFID(dst, v.root)
	dst = wire.AppendUvarint(dst, v.nextVnode)
	var lsn uint64
	var chain uint32
	if watermarks {
		lsn, chain = v.log.LSN(), v.chain
	}
	dst = wire.AppendUvarint(dst, lsn)
	dst = wire.AppendUvarint(dst, uint64(chain))

	dst = wire.AppendUvarint(dst, uint64(len(v.objects)))
	for _, fid := range sortedKeys(v.objects, fidLess) {
		dst = wire.AppendObject(dst, v.objects[fid])
	}
	dst = wire.AppendUvarint(dst, uint64(len(v.lastAuthor)))
	for _, fid := range sortedKeys(v.lastAuthor, fidLess) {
		dst = wire.AppendFID(dst, fid)
		dst = wire.AppendString(dst, v.lastAuthor[fid])
	}
	dst = wire.AppendUvarint(dst, uint64(len(v.applied)))
	for _, k := range sortedKeys(v.applied, appliedLess) {
		dst = wire.AppendString(dst, k.client)
		dst = wire.AppendUvarint(dst, k.seq)
	}
	return dst
}

// imageSizeLocked estimates what appendLocked will append: file contents
// exactly — nearly all of an image — and a generous fixed width for every
// status, entry and row, so the encoder fills one allocation instead of
// doubling its way there from nothing. Caller holds v.mu.
func (v *volume) imageSizeLocked() int {
	n := 128 + len(v.info.Name) + 48*(len(v.lastAuthor)+len(v.applied))
	for _, o := range v.objects {
		n += 96 + len(o.Data) + len(o.Target)
		for name := range o.Children {
			n += 16 + len(name)
		}
	}
	return n
}

// SaveState writes all volumes to w. It acquires the registry lock, then
// every volume lock in ascending ID order — the canonical lock order, so a
// snapshot cannot deadlock against handlers or a concurrent SaveState —
// and releases each volume as soon as it is encoded; w is written after
// the last lock is dropped. The image is therefore a consistent
// point-in-time cut across all volumes.
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
	size := 0
	for _, v := range vols {
		v.mu.Lock()
		size += v.imageSizeLocked()
	}
	img := appendImageHeader(make([]byte, 0, 32+size), s.nextVolID, 0, len(vols))
	s.mu.Unlock()

	for _, v := range vols {
		img = v.appendLocked(img, false)
		v.mu.Unlock()
	}
	return img
}

// decodeImage parses an image into volumes ready to install. Corrupted
// input — truncated, bit-flipped, written by another format — comes back
// as an error wrapping wire.ErrMalformed, never a panic, and nothing is
// allocated for a count the input cannot back. Keys out of ascending
// order are rejected, not merged: a duplicate would silently overwrite
// the earlier entry.
func decodeImage(data []byte) (vols []*volume, nextVolID codafs.VolumeID, metaLSN uint64, err error) {
	r := wire.NewReader(data)
	for i := 0; i < len(imageMagic); i++ {
		if r.Byte() != imageMagic[i] {
			r.Fail("unrecognised image format")
		}
	}
	nextVolID = codafs.VolumeID(r.Uint32())
	metaLSN = r.Uvarint()
	names := make(map[string]bool)
	for i, n := 0, r.Count(12); i < n && r.Err() == nil; i++ { // twelve one-byte fields at least
		v := readVolume(&r)
		if i > 0 && v.id() <= vols[i-1].id() {
			r.Fail("volumes out of order")
		}
		if names[v.info.Name] {
			r.Fail("duplicate volume name")
		}
		names[v.info.Name] = true
		vols = append(vols, v)
	}
	if err := r.Done(); err != nil {
		return nil, 0, 0, fmt.Errorf("server: load state: %w", err)
	}
	return vols, nextVolID, metaLSN, nil
}

// readVolume reads what appendLocked wrote.
func readVolume(r *wire.Reader) *volume {
	v := &volume{
		objCallbacks: make(map[codafs.FID]map[string]bool),
		volCallbacks: make(map[string]bool),
	}
	r.VolumeInfo(&v.info)
	v.root = r.FID()
	v.nextVnode = r.Uvarint()
	// The watermarks anchor the replication state: the retained log
	// restarts empty at the watermark, and entries at or below it count
	// as shipped (peers that missed them pull, they are never re-pushed).
	lsn := r.Uvarint()
	v.log = wal.JournalAt(lsn)
	v.chain = r.Uint32()
	v.replBaseLSN, v.replBaseChain, v.shippedLSN = lsn, v.chain, lsn

	n := r.Count(4) // status mask, data length, entry count, target length
	v.objects = make(map[codafs.FID]*codafs.Object, n)
	var prev codafs.FID
	for i := 0; i < n && r.Err() == nil; i++ {
		o := new(codafs.Object)
		r.Object(o)
		if i > 0 && !fidLess(prev, o.Status.FID) {
			r.Fail("objects out of order")
		}
		prev = o.Status.FID
		v.objects[prev] = o
	}

	n = r.Count(4) // three FID components, author length
	v.lastAuthor = make(map[codafs.FID]string, n)
	for i := 0; i < n; i++ {
		fid := r.FID()
		if i > 0 && !fidLess(prev, fid) {
			r.Fail("authorship rows out of order")
		}
		prev = fid
		v.lastAuthor[fid] = r.String()
	}

	n = r.Count(2) // client length, sequence
	v.applied = make(map[appliedKey]bool, n)
	var prevKey appliedKey
	for i := 0; i < n; i++ {
		k := appliedKey{client: r.String(), seq: r.Uvarint()}
		if i > 0 && !appliedLess(prevKey, k) {
			r.Fail("dedup rows out of order")
		}
		prevKey = k
		v.applied[k] = true
	}
	return v
}

// install publishes decoded volumes in an empty server.
func (s *Server) install(vols []*volume, nextVolID codafs.VolumeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.volumes) > 0 {
		return fmt.Errorf("server: LoadState on a non-empty server")
	}
	s.nextVolID = nextVolID
	for _, v := range vols {
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
	vols, nextVolID, _, err := decodeImage(data)
	if err != nil {
		return err
	}
	return s.install(vols, nextVolID)
}
