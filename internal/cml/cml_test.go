package cml

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/codafs"
)

var t0 = time.Date(1995, 7, 1, 9, 0, 0, 0, time.UTC)

func fid(vnode uint64) codafs.FID {
	return codafs.FID{Volume: 1, Vnode: vnode, Unique: vnode}
}

var dirFID = fid(1)

func storeRec(f codafs.FID, n int) Record {
	return Record{Kind: Store, FID: f, Parent: dirFID, Name: "f", Data: bytes.Repeat([]byte("d"), n), Length: int64(n)}
}

func TestAppendBasic(t *testing.T) {
	l := NewLog()
	if !l.Append(Record{Kind: Create, FID: fid(2), Parent: dirFID, Name: "a"}, t0) {
		t.Fatal("append dropped")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
	recs := l.Records()
	if recs[0].Seq != 1 || !recs[0].Time.Equal(t0) {
		t.Errorf("record stamps: seq=%d time=%v", recs[0].Seq, recs[0].Time)
	}
}

func TestStoreOverwritesStore(t *testing.T) {
	l := NewLog()
	l.Append(storeRec(fid(2), 1000), t0)
	l.Append(storeRec(fid(2), 500), t0.Add(time.Minute))
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (older store cancelled)", l.Len())
	}
	if got := l.Records()[0].Length; got != 500 {
		t.Errorf("surviving store length = %d, want 500", got)
	}
	if l.SavedBytes() < 1000 {
		t.Errorf("SavedBytes = %d, want ≥ 1000", l.SavedBytes())
	}
	// A store of a different file must not cancel.
	l.Append(storeRec(fid(3), 100), t0.Add(2*time.Minute))
	if l.Len() != 2 {
		t.Errorf("unrelated store cancelled something: Len=%d", l.Len())
	}
}

func TestCreateStoreUnlinkAllEliminated(t *testing.T) {
	// The paper's canonical example (§4.3.3): create + store + unlink
	// leaves nothing.
	l := NewLog()
	f := fid(2)
	l.Append(Record{Kind: Create, FID: f, Parent: dirFID, Name: "tmp"}, t0)
	l.Append(storeRec(f, 4096), t0.Add(time.Second))
	survived := l.Append(Record{Kind: Remove, FID: f, Parent: dirFID, Name: "tmp"}, t0.Add(2*time.Second))
	if survived {
		t.Error("remove of in-log creation survived")
	}
	if l.Len() != 0 {
		t.Errorf("Len = %d, want 0", l.Len())
	}
	if l.SavedBytes() < 4096 {
		t.Errorf("SavedBytes = %d, want ≥ 4096 (the store data)", l.SavedBytes())
	}
	if l.SavedRecords() != 3 {
		t.Errorf("SavedRecords = %d, want 3", l.SavedRecords())
	}
}

func TestRemoveOfPreexistingFileCancelsStores(t *testing.T) {
	l := NewLog()
	f := fid(2)
	l.Append(storeRec(f, 2048), t0)
	l.Append(Record{Kind: SetAttr, FID: f, Mode: 0644}, t0)
	survived := l.Append(Record{Kind: Remove, FID: f, Parent: dirFID, Name: "f"}, t0.Add(time.Second))
	if !survived {
		t.Error("remove of pre-existing file was dropped")
	}
	recs := l.Records()
	if len(recs) != 1 || recs[0].Kind != Remove {
		t.Fatalf("log = %d records, want just the remove", len(recs))
	}
}

func TestSetAttrOverridesSetAttr(t *testing.T) {
	l := NewLog()
	f := fid(2)
	l.Append(Record{Kind: SetAttr, FID: f, Mode: 0600}, t0)
	l.Append(Record{Kind: SetAttr, FID: f, Mode: 0644}, t0)
	if l.Len() != 1 || l.Records()[0].Mode != 0644 {
		t.Error("setattr did not override earlier setattr")
	}
}

func TestRmdirCancelsMkdir(t *testing.T) {
	l := NewLog()
	d := fid(5)
	l.Append(Record{Kind: Mkdir, FID: d, Parent: dirFID, Name: "sub"}, t0)
	survived := l.Append(Record{Kind: Rmdir, FID: d, Parent: dirFID, Name: "sub"}, t0)
	if survived || l.Len() != 0 {
		t.Errorf("mkdir+rmdir left %d records", l.Len())
	}
}

func TestRmdirWithLiveChildrenNotCancelled(t *testing.T) {
	l := NewLog()
	d := fid(5)
	l.Append(Record{Kind: Mkdir, FID: d, Parent: dirFID, Name: "sub"}, t0)
	l.Append(Record{Kind: Create, FID: fid(6), Parent: d, Name: "inner"}, t0)
	// Venus would never issue rmdir on a non-empty directory; but if the
	// inner create is still live, identity cancellation must not fire.
	l.Append(Record{Kind: Rmdir, FID: d, Parent: dirFID, Name: "sub"}, t0)
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3 (no unsafe cancellation)", l.Len())
	}
}

func TestMkdirCreateRemoveRmdirChainEliminated(t *testing.T) {
	l := NewLog()
	d, f := fid(5), fid(6)
	l.Append(Record{Kind: Mkdir, FID: d, Parent: dirFID, Name: "sub"}, t0)
	l.Append(Record{Kind: Create, FID: f, Parent: d, Name: "x"}, t0)
	l.Append(storeRec(f, 100), t0)
	l.Append(Record{Kind: Remove, FID: f, Parent: d, Name: "x"}, t0)
	l.Append(Record{Kind: Rmdir, FID: d, Parent: dirFID, Name: "sub"}, t0)
	if l.Len() != 0 {
		t.Errorf("Len = %d, want 0 after whole subtree lifetime in log", l.Len())
	}
}

func TestRenamedObjectNotIdentityCancelled(t *testing.T) {
	l := NewLog()
	f := fid(2)
	l.Append(Record{Kind: Create, FID: f, Parent: dirFID, Name: "a"}, t0)
	l.Append(Record{Kind: Rename, FID: f, Parent: dirFID, Name: "a", NewParent: dirFID, NewName: "b"}, t0)
	l.Append(Record{Kind: Remove, FID: f, Parent: dirFID, Name: "b"}, t0)
	// Conservative rule: renames block identity cancellation.
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3", l.Len())
	}
}

// TestLinkedObjectSurvivesRemoveOfOneName: removing one of two names
// removes neither the object nor its contents, whether it was created
// inside the log or predates it.
func TestLinkedObjectSurvivesRemoveOfOneName(t *testing.T) {
	for _, created := range []bool{true, false} {
		l := NewLog()
		f := fid(2)
		if created {
			l.Append(Record{Kind: Create, FID: f, Parent: dirFID, Name: "a"}, t0)
		}
		l.Append(storeRec(f, 100), t0)
		l.Append(Record{Kind: Link, FID: f, Parent: dirFID, Name: "b"}, t0)
		if !l.Append(Record{Kind: Remove, FID: f, Parent: dirFID, Name: "b"}, t0) {
			t.Errorf("created=%v: remove of a second name was annihilated", created)
		}
		var kinds []Kind
		for _, r := range l.Records() {
			kinds = append(kinds, r.Kind)
		}
		want := []Kind{Store, Link, Remove}
		if created {
			want = append([]Kind{Create}, want...)
		}
		if !reflect.DeepEqual(kinds, want) {
			t.Errorf("created=%v: log = %v, want %v", created, kinds, want)
		}
	}
}

func TestOptimizeDisabled(t *testing.T) {
	l := NewLog()
	l.SetOptimize(false)
	f := fid(2)
	l.Append(Record{Kind: Create, FID: f, Parent: dirFID, Name: "tmp"}, t0)
	l.Append(storeRec(f, 100), t0)
	l.Append(Record{Kind: Remove, FID: f, Parent: dirFID, Name: "tmp"}, t0)
	if l.Len() != 3 {
		t.Errorf("Len = %d with optimizations off, want 3", l.Len())
	}
	if l.SavedBytes() != 0 {
		t.Error("savings recorded with optimizations off")
	}
}

func TestBeginReintegrationAging(t *testing.T) {
	l := NewLog()
	l.Append(storeRec(fid(2), 100), t0)
	l.Append(storeRec(fid(3), 100), t0.Add(5*time.Minute))
	now := t0.Add(10 * time.Minute)
	// A = 10 min: only the first record is old enough.
	chunk := l.BeginReintegration(10*time.Minute, 1<<30, now)
	if len(chunk) != 1 || chunk[0].FID != fid(2) {
		t.Fatalf("chunk = %d records", len(chunk))
	}
	l.CommitReintegration()
	if l.Len() != 1 {
		t.Errorf("Len after commit = %d, want 1", l.Len())
	}
}

func TestBeginReintegrationNothingEligible(t *testing.T) {
	l := NewLog()
	l.Append(storeRec(fid(2), 100), t0)
	if chunk := l.BeginReintegration(10*time.Minute, 1<<30, t0.Add(time.Minute)); chunk != nil {
		t.Errorf("chunk = %v, want nil (too young)", chunk)
	}
	if l.Reintegrating() {
		t.Error("barrier placed with empty chunk")
	}
}

func TestChunkSizeBound(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(storeRec(fid(uint64(2+i)), 1000), t0)
	}
	now := t0.Add(time.Hour)
	chunk := l.BeginReintegration(time.Minute, 3000, now)
	// Each record is ~1070 bytes; two fit under 3000.
	if len(chunk) != 2 {
		t.Fatalf("chunk = %d records, want 2", len(chunk))
	}
}

func TestChunkAlwaysAtLeastOneRecord(t *testing.T) {
	l := NewLog()
	l.Append(storeRec(fid(2), 1<<20), t0) // 1 MB store
	chunk := l.BeginReintegration(time.Minute, 1000, t0.Add(time.Hour))
	if len(chunk) != 1 {
		t.Fatalf("oversized single record not selected: chunk=%d", len(chunk))
	}
}

func TestBarrierFreezesPrefix(t *testing.T) {
	l := NewLog()
	f := fid(2)
	l.Append(storeRec(f, 1000), t0)
	chunk := l.BeginReintegration(time.Minute, 1<<30, t0.Add(time.Hour))
	if len(chunk) != 1 {
		t.Fatal("no chunk")
	}
	// A new store of the same file during reintegration must NOT cancel
	// the frozen record (Figure 3).
	l.Append(storeRec(f, 500), t0.Add(time.Hour))
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (frozen record protected)", l.Len())
	}
	// Concurrent reintegration attempt is refused.
	if c2 := l.BeginReintegration(time.Minute, 1<<30, t0.Add(2*time.Hour)); c2 != nil {
		t.Error("second BeginReintegration succeeded during first")
	}
	l.CommitReintegration()
	if l.Len() != 1 || l.Records()[0].Length != 500 {
		t.Error("commit removed the wrong records")
	}
}

func TestAbortReoptimizes(t *testing.T) {
	l := NewLog()
	f := fid(2)
	l.Append(storeRec(f, 1000), t0)
	l.BeginReintegration(time.Minute, 1<<30, t0.Add(time.Hour))
	l.Append(storeRec(f, 500), t0.Add(time.Hour)) // would cancel but frozen
	l.AbortReintegration()
	// After abort the whole log is optimizable again: the old store must
	// now be cancelled by the newer one (§4.3.3).
	if l.Len() != 1 {
		t.Fatalf("Len after abort = %d, want 1", l.Len())
	}
	if got := l.Records()[0].Length; got != 500 {
		t.Errorf("surviving store length = %d, want 500", got)
	}
}

func TestEligibleBytesAndOldestAge(t *testing.T) {
	l := NewLog()
	l.Append(storeRec(fid(2), 936), t0) // Size = 64 + 1 + 935... compute below
	sz := l.Records()[0].Size()
	l.Append(storeRec(fid(3), 100), t0.Add(time.Hour))
	now := t0.Add(90 * time.Minute)
	if got := l.EligibleBytes(time.Hour, now); got != sz {
		t.Errorf("EligibleBytes = %d, want %d", got, sz)
	}
	if got := l.OldestAge(now); got != 90*time.Minute {
		t.Errorf("OldestAge = %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	l := NewLog()
	l.Append(Record{Kind: Create, FID: fid(2), Parent: dirFID, Name: "a"}, t0)
	l.Append(storeRec(fid(2), 300), t0.Add(time.Second))
	l.Append(storeRec(fid(2), 200), t0.Add(2*time.Second)) // cancels the first store
	img := l.Save()
	got, err := Load(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() || got.Bytes() != l.Bytes() || got.SavedBytes() != l.SavedBytes() || got.SavedRecords() != l.SavedRecords() {
		t.Error("loaded log differs")
	}
	if again := got.Save(); !reflect.DeepEqual(again, l.Save()) {
		t.Errorf("image changed across Load/Save:\n got %+v\nwant %+v", again, l.Save())
	}
	// Sequence numbers continue from where they left off.
	got.Append(storeRec(fid(3), 10), t0.Add(time.Minute))
	recs := got.Records()
	if recs[len(recs)-1].Seq <= recs[len(recs)-2].Seq {
		t.Error("sequence numbers not preserved across save/load")
	}
}

// TestLoadGarbage: counters no log can hold are refused.
func TestLoadGarbage(t *testing.T) {
	for _, img := range []Image{
		{SavedBytes: -1},
		{SavedRecs: -1},
		{NextSeq: 3, SavedBytes: -1 << 63, Records: []Record{{Seq: 1, Kind: Store}}},
	} {
		if _, err := Load(img); err == nil {
			t.Errorf("Load accepted %+v", img)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Store: "store", Create: "create", Mkdir: "mkdir", MakeSymlink: "symlink",
		Link: "link", Remove: "remove", Rmdir: "rmdir", Rename: "rename", SetAttr: "setattr",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// Property: log size conservation — total appended bytes equals surviving
// bytes plus saved bytes, for any interleaving of stores and removes.
func TestSavingsConservationProperty(t *testing.T) {
	type op struct {
		File   uint8
		Size   uint16
		Remove bool
	}
	f := func(ops []op) bool {
		l := NewLog()
		now := t0
		var appended int64
		live := map[uint64]bool{}
		for _, o := range ops {
			now = now.Add(time.Second)
			vn := uint64(o.File%8) + 2
			if o.Remove {
				if !live[vn] {
					continue
				}
				r := Record{Kind: Remove, FID: fid(vn), Parent: dirFID, Name: "f"}
				appended += r.Size()
				l.Append(r, now)
				live[vn] = false
			} else {
				var r Record
				if !live[vn] {
					r = Record{Kind: Create, FID: fid(vn), Parent: dirFID, Name: "f"}
					appended += r.Size()
					l.Append(r, now)
					live[vn] = true
					now = now.Add(time.Second)
				}
				r = storeRec(fid(vn), int(o.Size))
				appended += r.Size()
				l.Append(r, now)
			}
		}
		return l.Bytes()+l.SavedBytes() == appended
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: chunks never split temporal order — the selected chunk is
// always exactly a prefix of the log.
func TestChunkPrefixProperty(t *testing.T) {
	f := func(sizes []uint16, chunkKB uint8) bool {
		l := NewLog()
		now := t0
		for i, sz := range sizes {
			l.Append(storeRec(fid(uint64(i)+2), int(sz)), now)
			now = now.Add(time.Second)
		}
		before := l.Records()
		chunk := l.BeginReintegration(0, int64(chunkKB)*1024+1, now)
		if len(before) == 0 {
			return chunk == nil
		}
		if len(chunk) == 0 {
			return false
		}
		for i := range chunk {
			if chunk[i].Seq != before[i].Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLoadCorruptedNeverPanics: an image whose sequence numbers break the
// order Append maintains — zero, repeated, descending, or past NextSeq —
// is an error from Load, never a panic and never a log that would
// reissue a sequence number.
func TestLoadCorruptedNeverPanics(t *testing.T) {
	l := NewLog()
	l.Append(Record{Kind: Create, FID: fid(2), Parent: dirFID, Name: "a"}, t0)
	l.Append(storeRec(fid(2), 300), t0.Add(time.Second))
	l.Append(Record{Kind: Rename, FID: fid(2), Parent: dirFID, Name: "a", NewName: "b"}, t0.Add(time.Minute))
	good := l.Save()
	if _, err := Load(l.Save()); err != nil {
		t.Fatalf("Load rejected a saved image: %v", err)
	}
	for i := range good.Records {
		seqs := []uint64{0, good.NextSeq + 1}
		if i > 0 {
			seqs = append(seqs, good.Records[i-1].Seq)
		}
		for _, seq := range seqs {
			bad := l.Save()
			bad.Records[i].Seq = seq
			if _, err := Load(bad); err == nil {
				t.Errorf("Load accepted record %d with sequence %d (next %d)", i, seq, good.NextSeq)
			}
		}
	}
	short := l.Save()
	short.NextSeq = short.Records[len(short.Records)-1].Seq - 1
	if _, err := Load(short); err == nil {
		t.Error("Load accepted NextSeq below the last record's sequence")
	}
}

// TestCommitDoesNotRecopyLog: a long log shipped a few records at a time,
// with appends landing between chunks as they do under trickle
// reintegration, commits each chunk by slicing it off. What remains is
// always exactly the unshipped suffix, in order, and the survivors are
// copied about once over the whole drain, not once per chunk (6.6 MB for
// this log).
func TestCommitDoesNotRecopyLog(t *testing.T) {
	const records, chunk = 2580, 4
	l := NewLog()
	appended := uint64(0)
	add := func() {
		appended++
		l.Append(Record{Kind: Create, FID: fid(appended + 1), Parent: dirFID, Name: "f"}, t0)
	}
	for i := 0; i < records; i++ {
		add()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	shipped := uint64(0)
	for round := 0; l.Len() > 0; round++ {
		got := l.BeginReintegration(0, chunk*(RecordOverhead+1), t0)
		if len(got) == 0 || len(got) > chunk {
			t.Fatalf("round %d: chunk of %d records", round, len(got))
		}
		for _, r := range got {
			if shipped++; r.Seq != shipped {
				t.Fatalf("round %d shipped seq %d, want %d", round, r.Seq, shipped)
			}
		}
		if round%8 == 0 && round < 800 {
			add() // lands behind the barrier, in the same array
		}
		l.CommitReintegration()
		if len(l.records) > 0 && l.records[0].Seq != shipped+1 {
			t.Fatalf("round %d: log now starts at seq %d, want %d", round, l.records[0].Seq, shipped+1)
		}
		if want := int(appended - shipped); l.Len() != want {
			t.Fatalf("round %d: %d records left, want %d", round, l.Len(), want)
		}
	}
	runtime.ReadMemStats(&after)
	if shipped != appended {
		t.Fatalf("shipped %d records, appended %d", shipped, appended)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("draining a %d-record log %d at a time allocated %d bytes, want under 1 MiB", records, chunk, got)
	}
}
