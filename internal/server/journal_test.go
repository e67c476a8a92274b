package server

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/crashfs"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The server crash matrix drives a scripted mutation sequence against a
// journaled server backed by crashfs.Mem, cuts power at every write, and
// checks the recovered server is byte-identical to a never-crashed server
// that executed exactly the acknowledged prefix. With SyncEachRecord, an
// operation that returned nil is durable; one that returned an error must
// leave no trace.

// sdriver holds the per-run script state: client-allocated FIDs and the
// versions the "client" saw, so Store/SetAttr records carry the right
// PrevVersion for the optimistic conflict check.
type sdriver struct {
	s   *Server
	vol map[string]codafs.VolumeID
	fid map[string]codafs.FID
	ver map[string]uint64
	n   uint64
}

func newSdriver(s *Server) *sdriver {
	return &sdriver{
		s:   s,
		vol: make(map[string]codafs.VolumeID),
		fid: make(map[string]codafs.FID),
		ver: make(map[string]uint64),
	}
}

const sclient = "c1"

func (d *sdriver) newFID(vol string) codafs.FID {
	d.n++
	return codafs.FID{Volume: d.vol[vol], Vnode: 7<<32 | d.n, Unique: d.n}
}

func (d *sdriver) root(vol string) codafs.FID {
	return codafs.FID{Volume: d.vol[vol], Vnode: 1, Unique: 1}
}

func (d *sdriver) createVolume(name string) error {
	info, err := d.s.CreateVolume(name)
	if err != nil {
		return err
	}
	d.vol[name] = info.ID
	return nil
}

func (d *sdriver) makeObject(vol, key string, parent codafs.FID, name string, kind cml.Kind) error {
	fid := d.newFID(vol)
	rep, err := d.s.mutate(sclient, obs.SpanContext{}, wire.MutationOf(&cml.Record{
		Kind: kind, FID: fid, Parent: parent, Name: name,
		Mode: 0644, Owner: sclient,
	}))
	if err != nil {
		return err
	}
	d.fid[key] = fid
	d.ver[key] = rep.Status.Version
	return nil
}

func (d *sdriver) store(key string, data []byte) error {
	rep, err := d.s.mutate(sclient, obs.SpanContext{}, wire.MutationOf(&cml.Record{
		Kind: cml.Store, FID: d.fid[key], Data: data,
		Length: int64(len(data)), PrevVersion: d.ver[key],
	}))
	if err != nil {
		return err
	}
	d.ver[key] = rep.Status.Version
	return nil
}

func (d *sdriver) setattr(key string, mode uint32) error {
	rep, err := d.s.mutate(sclient, obs.SpanContext{}, wire.MutationOf(&cml.Record{
		Kind: cml.SetAttr, FID: d.fid[key], Mode: mode,
		ModTime: time.Unix(800000000, 0).UTC(), PrevVersion: d.ver[key], // UTC, as the wire decoder delivers it
	}))
	if err != nil {
		return err
	}
	d.ver[key] = rep.Status.Version
	return nil
}

func (d *sdriver) rename(key string, parent codafs.FID, name string, newParent codafs.FID, newName string) error {
	_, err := d.s.mutate(sclient, obs.SpanContext{}, wire.MutationOf(&cml.Record{
		Kind: cml.Rename, FID: d.fid[key], Parent: parent, Name: name,
		NewParent: newParent, NewName: newName,
	}))
	return err
}

func (d *sdriver) remove(key string, parent codafs.FID, name string) error {
	_, err := d.s.mutate(sclient, obs.SpanContext{}, wire.MutationOf(&cml.Record{
		Kind: cml.Remove, FID: d.fid[key], Parent: parent, Name: name,
		PrevVersion: d.ver[key],
	}))
	return err
}

func (d *sdriver) link(key string, parent codafs.FID, name string) error {
	_, err := d.s.mutate(sclient, obs.SpanContext{}, wire.MutationOf(&cml.Record{
		Kind: cml.Link, FID: d.fid[key], Parent: parent, Name: name,
	}))
	return err
}

// serverOps is the scripted mutation sequence. It spans two volumes (two
// journal domains), every connected-mode record kind, and a mid-sequence
// Checkpoint, so crash points land inside snapshot writes and WAL resets
// as well as inside frame appends.
var serverOps = []func(d *sdriver) error{
	func(d *sdriver) error { return d.createVolume("usr") },
	func(d *sdriver) error { return d.createVolume("proj") },
	func(d *sdriver) error { return d.makeObject("usr", "docs", d.root("usr"), "docs", cml.Mkdir) },
	func(d *sdriver) error {
		return d.makeObject("usr", "paper", d.fid["docs"], "paper.tex", cml.Create)
	},
	func(d *sdriver) error { return d.store("paper", []byte("\\documentclass{article}")) },
	func(d *sdriver) error {
		return d.makeObject("proj", "notes", d.root("proj"), "notes.txt", cml.Create)
	},
	func(d *sdriver) error { return d.store("notes", []byte("meeting notes")) },
	func(d *sdriver) error { return d.setattr("paper", 0600) },
	func(d *sdriver) error {
		// Checkpoint is a no-op on the never-journaled baseline server.
		d.s.mu.Lock()
		attached := d.s.journal != nil
		d.s.mu.Unlock()
		if !attached {
			return nil
		}
		return d.s.Checkpoint()
	},
	func(d *sdriver) error {
		return d.rename("paper", d.fid["docs"], "paper.tex", d.root("usr"), "final.tex")
	},
	func(d *sdriver) error { return d.store("paper", []byte("\\documentclass{book}")) },
	func(d *sdriver) error { return d.link("paper", d.fid["docs"], "alias.tex") },
	func(d *sdriver) error { return d.remove("notes", d.root("proj"), "notes.txt") },
	func(d *sdriver) error {
		return d.makeObject("usr", "post", d.root("usr"), "post.txt", cml.Create)
	},
	func(d *sdriver) error { return d.store("post", []byte("written after the checkpoint")) },
}

func serverJournalOpts(mem *crashfs.Mem) JournalOptions {
	return JournalOptions{FS: mem, Dir: "sj", Policy: wal.SyncEachRecord}
}

// serverMatrixRun executes serverOps[:limit] on a journaled server with an
// optional crash armed at the crashAt-th write, then reboots the FS and
// recovers into a fresh server. It returns the count of ops that
// succeeded, the write count at the end of the op phase, the recovered
// server's state bytes, and the recovery stats.
func serverMatrixRun(t *testing.T, crashAt, keepUnsynced, limit int) (int, int, []byte, RecoveryInfo) {
	t.Helper()
	mem := crashfs.NewMem()
	w := newWorld()
	if _, err := w.srv.AttachJournal(serverJournalOpts(mem)); err != nil {
		t.Fatal(err)
	}
	if crashAt > 0 {
		mem.ArmCrash(crashAt, keepUnsynced)
	}
	d := newSdriver(w.srv)
	completed := 0
	for i := 0; i < limit; i++ {
		if err := serverOps[i](d); err != nil {
			break
		}
		completed++
	}
	writesEnd := mem.Writes()
	mem.Reboot()

	w2 := newWorld()
	info, err := w2.srv.AttachJournal(serverJournalOpts(mem))
	if err != nil {
		t.Fatalf("recovery after crash at write %d: %v", crashAt, err)
	}
	var buf bytes.Buffer
	if err := w2.srv.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return completed, writesEnd, buf.Bytes(), info
}

// serverBaseline runs serverOps[:p] on a plain, never-journaled server and
// returns its state bytes — the ground truth a recovered server must hit.
func serverBaseline(t *testing.T, p int) []byte {
	t.Helper()
	w := newWorld()
	d := newSdriver(w.srv)
	for i := 0; i < p; i++ {
		if err := serverOps[i](d); err != nil {
			t.Fatalf("baseline op %d: %v", i, err)
		}
	}
	var buf bytes.Buffer
	if err := w.srv.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestServerJournalCleanRecovery(t *testing.T) {
	completed, _, state, info := serverMatrixRun(t, 0, 0, len(serverOps))
	if completed != len(serverOps) {
		t.Fatalf("clean run completed %d/%d ops", completed, len(serverOps))
	}
	if !bytes.Equal(state, serverBaseline(t, len(serverOps))) {
		t.Error("recovered state diverges from a never-journaled run of the same ops")
	}
	if !info.SnapshotLoaded {
		t.Error("mid-sequence checkpoint snapshot not loaded on recovery")
	}
	// The checkpoint truncated everything before it: only post-checkpoint
	// batches replay.
	if info.VolumesReplayed != 0 {
		t.Errorf("VolumesReplayed = %d; creations predate the checkpoint", info.VolumesReplayed)
	}
	if info.BatchesReplayed == 0 {
		t.Error("no batches replayed; post-checkpoint ops lost")
	}
}

// TestServerCrashMatrix is the acceptance sweep: a power cut at every
// journal write (and, in a second pass, a cut that leaves a torn tail of
// unsynced bytes) recovers to exactly the acknowledged prefix.
func TestServerCrashMatrix(t *testing.T) {
	_, total, _, _ := serverMatrixRun(t, 0, 0, len(serverOps))
	if total == 0 {
		t.Fatal("scripted ops produced no journal writes")
	}
	baselines := map[int][]byte{}
	for _, keep := range []int{0, 5} {
		for k := 1; k <= total; k++ {
			p, _, got, _ := serverMatrixRun(t, k, keep, len(serverOps))
			want, ok := baselines[p]
			if !ok {
				want = serverBaseline(t, p)
				baselines[p] = want
			}
			if !bytes.Equal(got, want) {
				t.Errorf("crash at write %d (keep %d): recovered state diverges from clean run of the %d acknowledged ops",
					k, keep, p)
			}
		}
	}
}

func TestServerJournalFailureBlocksCommit(t *testing.T) {
	mem := crashfs.NewMem()
	w := newWorld()
	if _, err := w.srv.AttachJournal(serverJournalOpts(mem)); err != nil {
		t.Fatal(err)
	}
	d := newSdriver(w.srv)
	for i := 0; i < 4; i++ {
		if err := serverOps[i](d); err != nil {
			t.Fatal(err)
		}
	}
	mem.FailWrite(1, errInjected)
	if err := d.store("paper", []byte("lost")); err == nil {
		t.Fatal("store with failing journal accepted")
	}
	// The rejected update must not be visible.
	if data, err := w.srv.ReadFile("usr", "docs/paper.tex"); err != nil || len(data) != 0 {
		t.Errorf("rejected store leaked into volume state: %q, %v", data, err)
	}
}

var errInjected = bytes.ErrTooLarge // any distinctive sentinel

func TestServerLoadStateCorrupted(t *testing.T) {
	w := newWorld()
	w.srv.CreateVolume("usr")
	w.srv.WriteFile("usr", "a/b/file.txt", []byte("persist me"))
	var buf bytes.Buffer
	if err := w.srv.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	// Every strict prefix must fail cleanly: each count is checked against
	// the bytes that remain, so a truncated image never decodes.
	for n := 0; n < len(img); n++ {
		if err := newWorld().srv.LoadState(bytes.NewReader(img[:n])); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("LoadState of a %d/%d-byte prefix: %v, want ErrMalformed", n, len(img), err)
		}
	}
	// Flipped bytes must never panic; an error (or a benign data-byte flip
	// that still decodes) are both acceptable outcomes.
	for off := 0; off < len(img); off++ {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x5a
		if err := newWorld().srv.LoadState(bytes.NewReader(bad)); err != nil && !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("flip at %d: error %v does not wrap ErrMalformed", off, err)
		}
	}

	// Images that are well-framed but break a rule of the layout. raw
	// frames volumes from slices, so it can say what the encoder cannot:
	// repeated and descending keys.
	type author struct {
		fid codafs.FID
		who string
	}
	fid := func(vol codafs.VolumeID, n uint64) codafs.FID { return codafs.FID{Volume: vol, Vnode: n, Unique: n} }
	obj := func(f codafs.FID) codafs.Object {
		return codafs.Object{Status: codafs.Status{FID: f, Type: codafs.File}}
	}
	vol := func(id codafs.VolumeID, name string, objs []codafs.Object, authors []author, applied []appliedKey) []byte {
		c := wire.NewEncoder(nil)
		c.VolumeInfo(&codafs.VolumeInfo{ID: id, Name: name, Stamp: 1})
		root := fid(id, 1)
		c.FID(&root)
		nextVnode, lsn, chain := uint64(2), uint64(0), uint32(0)
		c.Uvarint(&nextVnode)
		c.Uvarint(&lsn)
		c.Uint32(&chain)
		count := func(n int) {
			u := uint64(n)
			c.Uvarint(&u)
		}
		count(len(objs))
		for i := range objs {
			c.Object(&objs[i])
		}
		count(len(authors))
		for _, a := range authors {
			c.FID(&a.fid)
			c.String(&a.who)
		}
		count(len(applied))
		for _, k := range applied {
			c.String(&k.client)
			c.Uvarint(&k.seq)
		}
		return c.Bytes()
	}
	header := func(volumes int) []byte { // magic, version, next volume ID 9, meta LSN 0, volume count
		return append([]byte(imageMagic), 9, 0, byte(volumes))
	}
	raw := func(vols ...[]byte) []byte {
		return append(header(len(vols)), bytes.Join(vols, nil)...)
	}
	plain := func(id codafs.VolumeID, name string) []byte {
		return vol(id, name, []codafs.Object{obj(fid(id, 1))}, nil, nil)
	}
	if err := newWorld().srv.LoadState(bytes.NewReader(raw(plain(1, "a"), plain(2, "b")))); err != nil {
		t.Fatalf("the table's well-formed image is rejected: %v", err)
	}
	gobImage, err := os.ReadFile("testdata/parent_gob.image")
	if err != nil {
		t.Fatal(err)
	}
	dir := codafs.Object{Status: codafs.Status{FID: fid(1, 1), Type: codafs.Directory},
		Children: map[string]codafs.FID{"x1": fid(1, 2), "x2": fid(1, 3)}}
	for name, bad := range map[string][]byte{
		"parent-format gob image": gobImage,
		"wrong magic":             append([]byte("CODV"), img[4:]...),
		"wrong version":           append([]byte("CODS\x02"), img[5:]...),
		"trailing byte":           append(append([]byte(nil), img...), 0),
		"duplicate volume ID":     raw(plain(1, "a"), plain(1, "b")),
		"descending volume IDs":   raw(plain(2, "b"), plain(1, "a")),
		"duplicate volume name":   raw(plain(1, "a"), plain(2, "a")),
		"volume count too large":  append(header(2), plain(1, "a")...),
		"duplicate object FID":    raw(vol(1, "a", []codafs.Object{obj(fid(1, 1)), obj(fid(1, 1))}, nil, nil)),
		"descending object FIDs":  raw(vol(1, "a", []codafs.Object{obj(fid(1, 2)), obj(fid(1, 1))}, nil, nil)),
		"descending directory names": bytes.Replace(raw(vol(1, "a", []codafs.Object{dir}, nil, nil)),
			[]byte("\x02x1"), []byte("\x02x3"), 1),
		"duplicate author FID":     raw(vol(1, "a", nil, []author{{fid(1, 1), "c1"}, {fid(1, 1), "c2"}}, nil)),
		"descending author FIDs":   raw(vol(1, "a", nil, []author{{fid(1, 2), "c1"}, {fid(1, 1), "c1"}}, nil)),
		"duplicate dedup row":      raw(vol(1, "a", nil, nil, []appliedKey{{"c1", 4}, {"c1", 4}})),
		"descending dedup seqs":    raw(vol(1, "a", nil, nil, []appliedKey{{"c1", 5}, {"c1", 4}})),
		"descending dedup clients": raw(vol(1, "a", nil, nil, []appliedKey{{"c2", 1}, {"c1", 2}})),
	} {
		w2 := newWorld()
		if err := w2.srv.LoadState(bytes.NewReader(bad)); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: LoadState = %v, want an error wrapping ErrMalformed", name, err)
		}
		if n := len(w2.srv.volumesByID()); n != 0 {
			t.Errorf("%s: rejected image installed %d volumes", name, n)
		}
	}
}

// TestServerCheckpointCrashSafety pins the checkpoint discipline: a power
// cut at any write of a Checkpoint leaves the old snapshot or the new
// one, never a mixture, and the batch journaled since the old one still
// replays over it — once, and not at all over the new one.
func TestServerCheckpointCrashSafety(t *testing.T) {
	run := func(crashAt int) (error, []byte, RecoveryInfo) {
		mem := crashfs.NewMem()
		w := newWorld()
		if _, err := w.srv.AttachJournal(serverJournalOpts(mem)); err != nil {
			t.Fatal(err)
		}
		d := newSdriver(w.srv)
		for i := 0; i < 5; i++ { // two volumes, docs/paper.tex created and stored
			if err := serverOps[i](d); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := d.setattr("paper", 0600); err != nil { // the WAL suffix
			t.Fatal(err)
		}
		if crashAt > 0 {
			mem.ArmCrash(crashAt, 0)
		}
		cerr := w.srv.Checkpoint()
		mem.Reboot()

		w2 := newWorld()
		info, err := w2.srv.AttachJournal(serverJournalOpts(mem))
		if err != nil {
			t.Fatalf("recovery after a cut at checkpoint write %d: %v", crashAt, err)
		}
		var buf bytes.Buffer
		if err := w2.srv.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		return cerr, buf.Bytes(), info
	}
	_, want, _ := run(0)
	old, fresh := 0, 0
	for k := 1; ; k++ {
		cerr, got, info := run(k)
		if !info.SnapshotLoaded {
			t.Fatalf("cut at checkpoint write %d: no snapshot survived", k)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cut at checkpoint write %d: recovered state diverges (%d batches replayed)", k, info.BatchesReplayed)
		}
		if info.BatchesReplayed == 1 {
			old++
		} else {
			fresh++
		}
		if cerr == nil {
			break // the cut landed beyond the checkpoint's last write
		}
	}
	if old == 0 || fresh == 0 {
		t.Errorf("sweep saw the old snapshot %d times and the new one %d times; want both", old, fresh)
	}
}
