package server

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/crashfs"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// undoEntry is one directory entry of a volume as the undo test sees it.
type undoEntry struct {
	dir, fid codafs.FID
	name     string
	typ      codafs.ObjType
}

// undoTree is what the undo test's record generator knows of a volume:
// its directories, its entries and each object's version, read before a
// batch and extended by the objects the batch's own records create.
type undoTree struct {
	dirs     []codafs.FID
	entries  []undoEntry
	versions map[codafs.FID]uint64
}

// snapshotUndo returns the server's SaveState bytes, the Resolve status
// of every path in the volume, and the volume's tree, walked in name
// order so the generator's choices depend on the seed alone.
func snapshotUndo(t *testing.T, s *Server, v *volume) ([]byte, map[string]codafs.Status, *undoTree) {
	t.Helper()
	var state bytes.Buffer
	if err := s.SaveState(&state); err != nil {
		t.Fatal(err)
	}
	tr := &undoTree{versions: map[codafs.FID]uint64{}}
	var paths []string
	v.mu.Lock()
	type item struct {
		fid  codafs.FID
		path string
	}
	queue := []item{{v.root, ""}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		d := v.objects[it.fid]
		tr.dirs = append(tr.dirs, it.fid)
		for _, name := range d.ChildNames() {
			fid := d.Children[name]
			o := v.objects[fid]
			p := it.path + "/" + name
			if o == nil {
				v.mu.Unlock()
				t.Fatalf("entry %s names %s, which the volume does not hold", p, fid)
			}
			paths = append(paths, p[1:])
			tr.entries = append(tr.entries, undoEntry{dir: it.fid, fid: fid, name: name, typ: o.Status.Type})
			if o.Status.Type == codafs.Directory {
				queue = append(queue, item{fid, p})
			}
		}
	}
	for fid, o := range v.objects {
		tr.versions[fid] = o.Status.Version
	}
	v.mu.Unlock()
	statuses := map[string]codafs.Status{}
	for _, p := range append(paths, "") {
		st, err := s.Resolve(v.info.Name, p)
		if err != nil {
			t.Fatalf("resolve %q: %v", p, err)
		}
		statuses[p] = st
	}
	return state.Bytes(), statuses, tr
}

// TestJournalBatchUndoRestoresVolume drives a journaled volume with seeded
// random batches of every record kind — creates, mkdirs, symlinks, stores,
// setattrs, links, removes, rmdirs and renames, with the refusals random
// choices bring (a name taken, a rename into its own subtree, a stale
// version, an object gone) — and makes some batches fail on purpose: a
// record that cannot be admitted at a random index, or a journal write
// that fails after every record was staged. After every failed batch the
// server's SaveState bytes and the Resolve status of every path must be
// what they were before it: staging in place is undone completely.
func TestJournalBatchUndoRestoresVolume(t *testing.T) {
	var refused, journalFailed, committed int
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mem := crashfs.NewMem()
		w := newWorld()
		s := w.srv
		info, err := s.CreateVolume("usr")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AttachJournal(serverJournalOpts(mem)); err != nil {
			t.Fatal(err)
		}
		v, _ := s.volByID(info.ID)
		var n uint64
		newFID := func() codafs.FID {
			n++
			return codafs.FID{Volume: info.ID, Vnode: 9<<32 | n, Unique: n}
		}
		name := func() string { return string(rune('a' + rng.Intn(8))) }
		for step := 0; step < 150; step++ {
			before, beforeSt, tr := snapshotUndo(t, s, v)
			client := fmt.Sprintf("c%d", rng.Intn(2))
			entry := func(want func(codafs.ObjType) bool) (undoEntry, bool) {
				var c []undoEntry
				for _, e := range tr.entries {
					if want(e.typ) {
						c = append(c, e)
					}
				}
				if len(c) == 0 {
					return undoEntry{}, false
				}
				return c[rng.Intn(len(c))], true
			}
			anyType := func(codafs.ObjType) bool { return true }
			notDir := func(typ codafs.ObjType) bool { return typ != codafs.Directory }
			gen := func() cml.Record {
				dir := tr.dirs[rng.Intn(len(tr.dirs))]
				switch rng.Intn(9) {
				case 0:
					if e, ok := entry(func(typ codafs.ObjType) bool { return typ == codafs.File }); ok {
						prev := tr.versions[e.fid]
						if rng.Intn(4) == 0 {
							prev-- // stale, unless client wrote it last
						}
						data := make([]byte, rng.Intn(64))
						rng.Read(data)
						return cml.Record{Kind: cml.Store, FID: e.fid, Data: data, Length: int64(len(data)), ModTime: simtime.Epoch1995.Add(time.Duration(step)), PrevVersion: prev}
					}
				case 1:
					if e, ok := entry(anyType); ok {
						return cml.Record{Kind: cml.SetAttr, FID: e.fid, Mode: 0600 | uint32(rng.Intn(0o100)), PrevVersion: tr.versions[e.fid]}
					}
				case 2:
					if e, ok := entry(notDir); ok {
						return cml.Record{Kind: cml.Link, FID: e.fid, Parent: dir, Name: name()}
					}
				case 3:
					if e, ok := entry(anyType); ok {
						kind := cml.Remove
						if e.typ == codafs.Directory {
							kind = cml.Rmdir
						}
						return cml.Record{Kind: kind, FID: e.fid, Parent: e.dir, Name: e.name}
					}
				case 4:
					if e, ok := entry(anyType); ok {
						return cml.Record{Kind: cml.Rename, FID: e.fid, Parent: e.dir, Name: e.name, NewParent: dir, NewName: name()}
					}
				}
				kind := []cml.Kind{cml.Create, cml.Mkdir, cml.MakeSymlink}[rng.Intn(3)]
				r := cml.Record{Kind: kind, FID: newFID(), Parent: dir, Name: name(), Owner: client}
				typ := codafs.File
				switch kind {
				case cml.Mkdir:
					typ = codafs.Directory
					tr.dirs = append(tr.dirs, r.FID)
				case cml.MakeSymlink:
					typ, r.Target = codafs.Symlink, "target"
				}
				tr.entries = append(tr.entries, undoEntry{dir: dir, fid: r.FID, name: r.Name, typ: typ})
				return r
			}
			recs := make([]cml.Record, 1+rng.Intn(4))
			for i := range recs {
				recs[i] = gen()
			}
			switch rng.Intn(4) {
			case 0: // a record no volume admits, at a random index
				bad := cml.Record{Kind: cml.Store, FID: newFID(), PrevVersion: 1}
				if rng.Intn(2) == 0 {
					bad = cml.Record{Kind: cml.Create, FID: newFID(), Parent: v.root, Name: ".."}
				}
				recs[rng.Intn(len(recs))] = bad
			case 1:
				mem.FailWrite(1, errInjected)
			}
			v.mu.Lock()
			failed, res, _, _, err := applyBatchLocked(v, client, recs, batchLive, 0, obs.SpanContext{})
			v.mu.Unlock()
			mem.FailWrite(1<<30, nil) // disarm a failure the batch never reached
			switch {
			case err != nil:
				journalFailed++
			case failed >= 0:
				refused++
			default:
				committed++
				continue
			}
			after, afterSt, _ := snapshotUndo(t, s, v)
			if !bytes.Equal(after, before) {
				t.Fatalf("seed %d step %d: failed batch (record %d: %q, err %v) changed the volume's image", seed, step, failed, res.Msg, err)
			}
			if !maps.Equal(afterSt, beforeSt) {
				t.Fatalf("seed %d step %d: failed batch (record %d: %q, err %v) changed resolved statuses:\nbefore %v\nafter  %v", seed, step, failed, res.Msg, err, beforeSt, afterSt)
			}
		}
	}
	t.Logf("%d batches committed, %d refused, %d failed at the journal", committed, refused, journalFailed)
	if committed < 200 || refused < 200 || journalFailed < 200 {
		t.Errorf("too few of a kind: %d committed, %d refused, %d journal failures", committed, refused, journalFailed)
	}
}
