package cml

import (
	"maps"
	"math/rand"
	"testing"
	"time"

	"repro/internal/codafs"
)

// recount is the reference for Log.refs: every object the records name
// (the zero FID is no object), and the Store and SetAttr records of each,
// counted by walking the whole log.
func recount(l *Log) map[codafs.FID]objRefs {
	want := map[codafs.FID]objRefs{}
	for _, r := range l.records {
		for i, f := range [...]codafs.FID{r.FID, r.Parent, r.NewParent} {
			if f.IsZero() {
				continue
			}
			c := want[f]
			c.names++
			if i == 0 && (r.Kind == Store || r.Kind == SetAttr) {
				c.updates++
			}
			want[f] = c
		}
	}
	return want
}

// TestReferencedModel drives a log through seeded random sequences of
// every operation that adds or removes records - appends that cancel or
// annihilate, prefix and subtree reintegrations committed or aborted,
// conflict removal, restoring an earlier image, optimization toggled - and after
// every step compares the maintained per-object counts (names, and the
// Store/SetAttr updates the cancellation rules read) with a full recount.
func TestReferencedModel(t *testing.T) {
	kinds := []Kind{Store, Create, Mkdir, MakeSymlink, Link, Remove, Rmdir, Rename, SetAttr}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLog()
		now := t0
		var snap *Image
		obj := func() codafs.FID { return fid(uint64(rng.Intn(8)) + 2) }
		dir := func() codafs.FID { return fid(uint64(rng.Intn(3)) + 1) }
		seqs := func(recs []*Record, keep func() bool) map[uint64]bool {
			m := map[uint64]bool{}
			for _, r := range recs {
				if keep() {
					m[r.Seq] = true
				}
			}
			return m
		}
		for step := 0; step < 300; step++ {
			now = now.Add(time.Second)
			switch op := rng.Intn(10); {
			case op < 5:
				r := Record{Kind: kinds[rng.Intn(len(kinds))], FID: obj(), Parent: dir(), Name: "n"}
				if r.Kind == Rename {
					r.NewParent, r.NewName = dir(), "m"
				}
				if r.Kind == Store {
					r.Data = []byte("data")
				}
				l.Append(r, now)
			case op == 5, op == 6:
				var chunk []*Record
				if op == 5 {
					chunk = l.BeginReintegration(0, int64(rng.Intn(4)+1)*RecordOverhead, now)
				} else {
					f := obj()
					chunk = l.BeginSubtreeReintegration(func(r *Record) bool { return r.FID == f })
				}
				if chunk == nil {
					continue
				}
				if rng.Intn(2) == 0 { // updates logged during the attempt
					l.Append(Record{Kind: Store, FID: obj(), Parent: dir(), Name: "n"}, now)
				}
				switch {
				case rng.Intn(3) == 0:
					l.AbortReintegration()
				case op == 5:
					l.CommitReintegration()
				default:
					l.CommitSubtree(seqs(chunk, func() bool { return true }))
				}
			case op == 7:
				l.Remove(seqs(l.Records(), func() bool { return rng.Intn(4) == 0 }))
			case op == 8: // take a snapshot, or go back to the last one
				if snap == nil || rng.Intn(2) == 0 {
					img := l.Save()
					snap = &img
					continue
				}
				from, err := Load(*snap)
				if err != nil {
					t.Fatalf("seed %d step %d: Load: %v", seed, step, err)
				}
				l.Restore(from)
				snap = nil
			default:
				l.SetOptimize(rng.Intn(3) != 0)
			}
			if want := recount(l); !maps.Equal(l.refs, want) {
				t.Fatalf("seed %d step %d: counts %v, recount %v", seed, step, l.refs, want)
			}
			for v := uint64(1); v <= 9; v++ {
				if got, want := l.Referenced(fid(v)), recount(l)[fid(v)].names > 0; got != want {
					t.Fatalf("seed %d step %d: Referenced(%d) = %v, want %v", seed, step, v, got, want)
				}
			}
		}
	}
}
