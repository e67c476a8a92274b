// Package cml implements the Client Modify Log (CML): the persistent,
// per-volume log of updates a Venus performs while emulating or
// write-disconnected, together with the machinery of §4.3 — log
// optimizations, the aging window, the reintegration barrier, and adaptive
// chunk selection.
//
// Records are kept in temporal order, which implies precedence order, so
// any prefix is safe to replay at the server (§4.3.5). Before a record is
// appended, it is checked against the unfrozen suffix of the log for
// cancellations ("log optimizations"): a store overwrites an earlier store
// of the same file, a remove of an object created within the log annihilates
// the entire chain, and so on. The bytes these cancellations save are what
// Figure 4 and Figure 14 measure.
package cml

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/codafs"
)

// Kind enumerates CML record types.
type Kind uint8

// Record kinds, covering every mutating operation Venus logs.
const (
	Store Kind = iota + 1
	Create
	Mkdir
	MakeSymlink
	Link
	Remove
	Rmdir
	Rename
	SetAttr
)

func (k Kind) String() string {
	switch k {
	case Store:
		return "store"
	case Create:
		return "create"
	case Mkdir:
		return "mkdir"
	case MakeSymlink:
		return "symlink"
	case Link:
		return "link"
	case Remove:
		return "remove"
	case Rmdir:
		return "rmdir"
	case Rename:
		return "rename"
	case SetAttr:
		return "setattr"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// RecordOverhead approximates the fixed per-record cost, in bytes, both in
// the log and on the wire (the paper notes shipped records are somewhat
// larger; the difference is absorbed into RPC framing).
const RecordOverhead = 64

// Record is one logged update. Except for Store records, a record contains
// everything needed to replay the update at the server; for a Store, Data
// holds the file contents (the paper keeps them in the local file system;
// here they live with the record).
type Record struct {
	Seq  uint64
	Time time.Time // when logged; drives the aging window
	Kind Kind

	FID    codafs.FID // object created / stored / attributed / removed
	Parent codafs.FID // containing directory
	Name   string

	NewParent codafs.FID // rename: destination directory
	NewName   string     // rename: new name

	Target  string // symlink target
	Mode    uint32
	ModTime time.Time
	Owner   string

	Data   []byte // store: file contents (nil if shipped as fragments)
	Length int64  // store: file length

	// PrevVersion is the object version this update was applied against
	// on the client; the server compares it for conflict detection.
	PrevVersion uint64
	// PrevParentVersion is the containing directory's version, for
	// directory-op conflict checks.
	PrevParentVersion uint64
}

// Size returns the record's size in bytes as accounted in the CML and for
// chunk selection; Store records include their file data (§4.3.5).
func (r *Record) Size() int64 {
	return int64(RecordOverhead + len(r.Name) + len(r.NewName) + len(r.Target) + len(r.Data))
}

// Objects is the object store a record's effect runs against: the
// server's all-or-nothing overlay over one volume, or a view of a client
// cache. Get returns fid's object for the effect to change in place, or
// nil if the store does not hold it; Put adds a new object, Drop removes
// fid, and Touch reports that the effect changed fid's object.
type Objects interface {
	Get(fid codafs.FID) *codafs.Object
	Put(o *codafs.Object)
	Drop(fid codafs.FID)
	Touch(fid codafs.FID)
}

// Apply writes r's effect into objs: the one rule for what an update
// does to objects, on the server that validated it and in the client
// cache that logged or sent it (§4.3: one update, two routes). It checks
// nothing — the server admits a record before applying it — and changes
// only what objs holds: an object or directory Get does not return is
// left as it is. It Gets only what it changes, and Touches each object
// after changing it — the object before its directory for a create or
// link, the directories first for a remove or rename — which is the
// order the server reports their new statuses in.
func (r *Record) Apply(objs Objects) {
	switch r.Kind {
	case Store:
		o := objs.Get(r.FID)
		if o == nil {
			o = r.newObject() // a cache that does not hold the file learns it whole
			objs.Put(o)
		}
		o.Data = r.Data[:len(r.Data):len(r.Data)] // adopted, not copied (codafs.Object); capped against appends
		o.Status.Length, o.Status.ModTime = r.Length, r.ModTime
		objs.Touch(r.FID)
	case SetAttr:
		if o := objs.Get(r.FID); o != nil {
			if r.Mode != 0 { // a zero mode leaves the mode unchanged
				o.Status.Mode = r.Mode
			}
			if !r.ModTime.IsZero() {
				o.Status.ModTime = r.ModTime
			}
			objs.Touch(r.FID)
		}
	case Create, Mkdir, MakeSymlink:
		objs.Put(r.newObject())
		bind(objs, r.Parent, r.Name, r.FID)
	case Link:
		if o := objs.Get(r.FID); o != nil {
			o.Status.Links++
			objs.Touch(r.FID)
		}
		bind(objs, r.Parent, r.Name, r.FID)
	case Remove, Rmdir:
		unbind(objs, r.Parent, r.Name)
		if o := objs.Get(r.FID); o != nil && o.Status.Links > 1 {
			o.Status.Links--
			objs.Touch(r.FID)
		} else {
			objs.Drop(r.FID)
		}
	case Rename:
		unbind(objs, r.Parent, r.Name)
		bind(objs, r.NewParent, r.NewName, r.FID)
		objs.Touch(r.FID)
	}
}

// bind enters name for fid in directory dir, if objs holds dir.
func bind(objs Objects, dir codafs.FID, name string, fid codafs.FID) {
	if d := objs.Get(dir); d != nil {
		d.SetEntry(name, fid)
		objs.Touch(dir)
	}
}

// unbind drops name from directory dir, if objs holds dir.
func unbind(objs Objects, dir codafs.FID, name string) {
	if d := objs.Get(dir); d != nil {
		d.DropEntry(name)
		objs.Touch(dir)
	}
}

// RestoreEntry undoes bind and unbind: name in directory d names fid
// again, or, for the zero FID, nothing. The server stages a batch in its
// live objects and puts back the entries the batch changed this way when
// the batch does not commit.
func RestoreEntry(d *codafs.Object, name string, fid codafs.FID) {
	if fid.IsZero() {
		d.DropEntry(name)
	} else {
		d.SetEntry(name, fid)
	}
}

// newObject returns the object a Create, Mkdir or MakeSymlink record
// makes, before any version is stamped on it, or the file a Store makes
// in a cache that does not hold it, at the version the store was made
// against. A file or directory created without a mode gets 0644 or
// 0755; a symlink's Length is its target's.
func (r *Record) newObject() *codafs.Object {
	o := &codafs.Object{
		Status: codafs.Status{FID: r.FID, Type: codafs.File, ModTime: r.ModTime, Mode: r.Mode, Owner: r.Owner, Links: 1},
		Target: r.Target,
	}
	switch r.Kind {
	case Store:
		o.Status.Version = r.PrevVersion
	case Create:
		if o.Status.Mode == 0 {
			o.Status.Mode = 0644
		}
	case Mkdir:
		o.Status.Type = codafs.Directory
		o.Children = make(map[string]codafs.FID)
		if o.Status.Mode == 0 {
			o.Status.Mode = 0755
		}
	case MakeSymlink:
		o.Status.Type = codafs.Symlink
		o.Status.Length = int64(len(r.Target))
	}
	return o
}

// CancelClass classifies which optimization rule eliminated a record,
// matching the cancellation taxonomy of §4.3.2.
type CancelClass string

// The cancellation classes applied by optimizeLocked.
const (
	// CancelStoreOverwrite: a store overrides an earlier store of the
	// same file.
	CancelStoreOverwrite CancelClass = "store_overwrite"
	// CancelSetAttrOverwrite: a setattr overrides an earlier setattr of
	// the same object.
	CancelSetAttrOverwrite CancelClass = "setattr_overwrite"
	// CancelIdentity: a remove annihilates an object whose whole
	// lifetime is inside the log (create+store+unlink).
	CancelIdentity CancelClass = "identity"
	// CancelRemoveMoot: a remove of a pre-existing object makes pending
	// stores and setattrs on it moot.
	CancelRemoveMoot CancelClass = "remove_moot"
)

// Log is the client modify log for one volume.
type Log struct {
	mu         sync.Mutex
	records    []*Record
	barrier    int                    // records[:barrier] are frozen for reintegration
	dead       int                    // records sliced off the array's front since CommitReintegration last compacted it
	refs       map[codafs.FID]objRefs // per object, the records that name it and that update it
	nextSeq    uint64
	savedBytes int64
	savedRecs  int64
	optimize   bool
	onCancel   func(class CancelClass, records int, bytes int64)
}

// objRefs counts, for one object, the records in the log that name it:
// as their object, directory or rename destination (names), and as the
// object of a Store or SetAttr (updates). The cancellation rules read it
// to skip a scan that can find nothing.
type objRefs struct {
	names   int
	updates int
}

// NewLog returns an empty log with optimizations enabled.
func NewLog() *Log {
	return &Log{optimize: true}
}

// SetOptimize enables or disables log optimizations (the ablation knob).
func (l *Log) SetOptimize(on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.optimize = on
}

// SetCancelObserver installs a callback invoked whenever optimization
// cancels records, with the rule that fired and the records/bytes it
// eliminated. The callback runs with the log's lock held: it must be
// cheap and must not call back into the Log (Venus uses it to bump
// per-class obs counters).
func (l *Log) SetCancelObserver(fn func(class CancelClass, records int, bytes int64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onCancel = fn
}

// Append adds r to the log at time now, first applying cancellation rules
// against the unfrozen suffix. It reports whether the record itself
// survived (a remove that annihilates an in-log creation is not appended).
func (l *Log) Append(r Record, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextSeq++
	r.Seq = l.nextSeq
	r.Time = now

	if l.optimize {
		if dropped := l.optimizeLocked(&r); dropped {
			return false
		}
	}
	l.records = append(l.records, &r)
	l.refLocked(&r, 1)
	return true
}

// refLocked adds d to the counts of every object r names. Every path by
// which a record enters or leaves l.records passes through here.
func (l *Log) refLocked(r *Record, d int) {
	if l.refs == nil {
		l.refs = make(map[codafs.FID]objRefs)
	}
	for i, fid := range [...]codafs.FID{r.FID, r.Parent, r.NewParent} {
		if fid.IsZero() {
			continue // no parent, or no rename destination
		}
		c := l.refs[fid]
		c.names += d
		if i == 0 && (r.Kind == Store || r.Kind == SetAttr) {
			c.updates += d
		}
		if c.names != 0 {
			l.refs[fid] = c
		} else {
			delete(l.refs, fid) // no record names it, so none updates it
		}
	}
}

// Referenced reports whether any record still names fid (as its object,
// its directory or a rename's destination), in time independent of the
// log's length.
func (l *Log) Referenced(fid codafs.FID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.refs[fid].names > 0
}

// optimizeLocked applies the paper's cancellation rules. It may cancel
// earlier unfrozen records and reports whether the incoming record is
// itself annihilated. A rule scans the log only when the counts say a
// record it could cancel exists: logging n new files costs O(n), not
// O(n²). The counts may cover records not in the unfrozen suffix (frozen
// ones, or, during AbortReintegration's replay, ones not replayed yet),
// which costs a scan that finds nothing but never skips a victim.
func (l *Log) optimizeLocked(r *Record) bool {
	c := l.refs[r.FID]
	switch r.Kind {
	case Store:
		// A store overrides any earlier store of the same file.
		if c.updates > 0 {
			l.cancelLocked(CancelStoreOverwrite, func(o *Record) bool {
				return o.Kind == Store && o.FID == r.FID
			})
		}
	case SetAttr:
		if c.updates > 0 {
			l.cancelLocked(CancelSetAttrOverwrite, func(o *Record) bool {
				return o.Kind == SetAttr && o.FID == r.FID
			})
		}
	case Remove, Rmdir:
		if c.names == 0 {
			return false // no record names the object: nothing to cancel
		}
		createdHere := false
		renamed := false
		for _, o := range l.unfrozenLocked() {
			switch o.Kind {
			case Create, Mkdir, MakeSymlink:
				if o.FID == r.FID {
					createdHere = true
				}
			case Rename:
				if o.FID == r.FID {
					renamed = true
				}
			case Link:
				if o.FID == r.FID {
					// Another name may outlive this one: the object,
					// and what was stored into it, survives the remove.
					return false
				}
			}
		}
		if createdHere && !renamed && !l.hasLiveChildrenLocked(r.FID) {
			// Identity cancellation: the object's whole lifetime is
			// inside the log; everything about it — including this
			// remove — vanishes (the paper's create+store+unlink
			// example).
			l.cancelLocked(CancelIdentity, func(o *Record) bool { return o.FID == r.FID })
			l.savedBytes += r.Size()
			l.savedRecs++
			if l.onCancel != nil {
				l.onCancel(CancelIdentity, 1, r.Size())
			}
			return true
		}
		// The object predates the log: pending stores and setattrs on
		// it are moot once it is removed.
		if r.Kind == Remove && c.updates > 0 {
			l.cancelLocked(CancelRemoveMoot, func(o *Record) bool {
				return (o.Kind == Store || o.Kind == SetAttr) && o.FID == r.FID
			})
		}
	}
	return false
}

// hasLiveChildrenLocked reports whether any unfrozen record creates or
// moves an object into directory dir that has not since been cancelled.
func (l *Log) hasLiveChildrenLocked(dir codafs.FID) bool {
	for _, o := range l.unfrozenLocked() {
		switch o.Kind {
		case Create, Mkdir, MakeSymlink, Link:
			if o.Parent == dir {
				return true
			}
		case Rename:
			if o.NewParent == dir {
				return true
			}
		}
	}
	return false
}

func (l *Log) unfrozenLocked() []*Record {
	return l.records[l.barrier:]
}

// dropLocked removes, in place, the records from index from on that drop
// selects, and returns how many and their bytes. The vacated tail is
// cleared: a dropped record, and the file contents it holds, is collectable.
func (l *Log) dropLocked(from int, drop func(*Record) bool) (recs int, bytes int64) {
	kept := l.records[:from]
	for _, o := range l.records[from:] {
		if drop(o) {
			recs++
			bytes += o.Size()
			l.refLocked(o, -1)
			continue
		}
		kept = append(kept, o)
	}
	clear(l.records[len(kept):])
	l.records = kept
	return recs, bytes
}

// cancelLocked removes unfrozen records matching pred, crediting savings
// to the given cancellation class.
func (l *Log) cancelLocked(class CancelClass, pred func(*Record) bool) {
	recs, bytes := l.dropLocked(l.barrier, pred)
	if recs > 0 {
		l.savedBytes += bytes
		l.savedRecs += int64(recs)
		if l.onCancel != nil {
			l.onCancel(class, recs, bytes)
		}
	}
}

// Len returns the number of records in the log.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Bytes returns the log's total size, including store data.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, r := range l.records {
		n += r.Size()
	}
	return n
}

// SavedBytes returns the cumulative bytes eliminated by optimizations.
func (l *Log) SavedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.savedBytes
}

// SavedRecords returns the cumulative count of records eliminated.
func (l *Log) SavedRecords() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.savedRecs
}

// Records returns a snapshot of the log in temporal order.
func (l *Log) Records() []*Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*Record(nil), l.records...)
}

// BeginReintegration selects the chunk for one reintegration attempt: the
// maximal prefix of records older than age whose sizes sum to at most
// chunkBytes — always at least one record, even if it alone exceeds the
// chunk size (that record is then fragmented by the caller, §4.3.5). The
// reintegration barrier is placed after the chunk, freezing it against
// optimization. It returns nil if no record is old enough or a
// reintegration is already in progress.
func (l *Log) BeginReintegration(age time.Duration, chunkBytes int64, now time.Time) []*Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.barrier > 0 || len(l.records) == 0 {
		return nil
	}
	var chunk []*Record
	var sum int64
	for _, r := range l.records {
		if now.Sub(r.Time) < age {
			break
		}
		if len(chunk) > 0 && sum+r.Size() > chunkBytes {
			break
		}
		chunk = append(chunk, r)
		sum += r.Size()
	}
	if len(chunk) == 0 {
		return nil
	}
	l.barrier = len(chunk)
	return append([]*Record(nil), chunk...)
}

// BeginSubtreeReintegration implements the refinement §4.3.5 leaves as
// future work: reintegrating only the records that affect a given set of
// objects (a directory subtree), without waiting for unrelated updates.
// member selects the directly-affected records; the returned chunk is their
// precedence closure — every earlier record a selected record depends on
// (creation of its object, of its containing directories, or any earlier
// operation on the same object or the same directory entry) is included, so
// the server never sees a record before its antecedents. The records are
// returned in temporal order (a subsequence of the log), the barrier is
// placed after the last of them, and the caller finishes with
// CommitSubtree (on success) or AbortReintegration.
func (l *Log) BeginSubtreeReintegration(member func(*Record) bool) []*Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.barrier > 0 || len(l.records) == 0 {
		return nil
	}
	needed := make([]bool, len(l.records))
	any := false
	for i, r := range l.records {
		if member(r) {
			needed[i] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	// Precedence closure to a fix point: an earlier record that created
	// or mutated any object a needed record names is an antecedent, and
	// its own antecedents are needed transitively.
	for changed := true; changed; {
		changed = false
		for i := len(l.records) - 1; i >= 0; i-- {
			if !needed[i] {
				continue
			}
			for j := 0; j < i; j++ {
				if !needed[j] && recordsRelated(l.records[j], l.records[i]) {
					needed[j] = true
					changed = true
				}
			}
		}
	}

	var chunk []*Record
	last := 0
	for i, r := range l.records {
		if needed[i] {
			chunk = append(chunk, r)
			last = i
		}
	}
	l.barrier = last + 1
	return append([]*Record(nil), chunk...)
}

// recordsRelated reports whether earlier record s is a precedence
// antecedent of later record r.
func recordsRelated(s, r *Record) bool {
	// Objects r names.
	names := func(rec *Record) []codafs.FID {
		out := []codafs.FID{rec.FID}
		if !rec.Parent.IsZero() {
			out = append(out, rec.Parent)
		}
		if !rec.NewParent.IsZero() {
			out = append(out, rec.NewParent)
		}
		return out
	}
	for _, a := range names(r) {
		for _, b := range names(s) {
			if a == b {
				return true
			}
		}
	}
	return false
}

// CommitSubtree removes the given records (by sequence number) after a
// successful subtree reintegration and lifts the barrier; the unrelated
// records that were interleaved with them remain.
func (l *Log) CommitSubtree(seqs map[uint64]bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.barrier = 0
	l.dropLocked(0, func(r *Record) bool { return seqs[r.Seq] })
}

// Reintegrating reports whether a barrier is in place.
func (l *Log) Reintegrating() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.barrier > 0
}

// CommitReintegration removes the barrier and every record to its left
// (successful reintegration, §4.3.3).
func (l *Log) CommitReintegration() {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Sliced off, not copied out: the prefix is cleared, so its records and
	// data are collectable; survivors move once the dead front outweighs them.
	for _, r := range l.records[:l.barrier] {
		l.refLocked(r, -1)
	}
	clear(l.records[:l.barrier])
	l.dead += l.barrier
	l.records, l.barrier = l.records[l.barrier:], 0
	if l.dead > len(l.records) {
		l.records, l.dead = append([]*Record(nil), l.records...), 0
	}
}

// Remove deletes the records with the given sequence numbers (Venus drops
// records the server reported as conflicts, surfacing them to the user
// instead of retrying them forever). It may remove frozen records, so it
// must only be called while no reintegration is in flight. It returns how
// many records were removed.
func (l *Log) Remove(seqs map[uint64]bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.barrier > 0 {
		return 0
	}
	removed, _ := l.dropLocked(0, func(r *Record) bool { return seqs[r.Seq] })
	return removed
}

// AbortReintegration removes the barrier after a failed attempt. The whole
// log becomes eligible for optimization again: records rendered superfluous
// by updates logged during the attempt are cancelled now (§4.3.3).
func (l *Log) AbortReintegration() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.barrier == 0 {
		return
	}
	l.barrier = 0
	if !l.optimize {
		return
	}
	// Re-run optimization by replaying the log into itself: append each
	// record in order, letting the standard rules fire across the now
	// unfrozen prefix. Seq and Time are preserved.
	old := l.records
	l.records = nil
	for _, r := range old {
		if !l.optimizeLocked(r) {
			l.records = append(l.records, r)
		} else {
			l.refLocked(r, -1) // annihilated on its own arrival
		}
	}
}

// Image is the persistent form of a Log: its records and counters,
// without the barrier (an interrupted reintegration is simply retried).
// It is a plain value; Venus frames it into its state image (local
// persistence is what lets trickle reintegration defer propagation for
// hours, §4.3.1).
type Image struct {
	Records    []Record
	NextSeq    uint64
	SavedBytes int64
	SavedRecs  int64
	Optimize   bool
}

// Save returns the log's image. Record data is shared, not copied.
func (l *Log) Save() Image {
	l.mu.Lock()
	defer l.mu.Unlock()
	img := Image{NextSeq: l.nextSeq, SavedBytes: l.savedBytes, SavedRecs: l.savedRecs, Optimize: l.optimize}
	if len(l.records) > 0 {
		img.Records = make([]Record, len(l.records))
		for i, r := range l.records {
			img.Records[i] = *r
		}
	}
	return img
}

// Load restores a log from an image, which it takes ownership of. The
// image comes from disk, so the invariants Append maintains are checked
// rather than assumed: sequence numbers ascend strictly and none exceeds
// NextSeq — a log that violated that would reissue a sequence number,
// and the server's (client, seq) dedup would silently drop the update.
func Load(img Image) (*Log, error) {
	if img.SavedBytes < 0 || img.SavedRecs < 0 {
		return nil, fmt.Errorf("cml: load: negative savings counter (%d bytes, %d records)", img.SavedBytes, img.SavedRecs)
	}
	l := &Log{nextSeq: img.NextSeq, savedBytes: img.SavedBytes, savedRecs: img.SavedRecs, optimize: img.Optimize}
	var prev uint64
	for i := range img.Records {
		rec := &img.Records[i]
		if rec.Seq <= prev || rec.Seq > img.NextSeq {
			return nil, fmt.Errorf("cml: load: record %d has sequence %d after %d (next %d)", i, rec.Seq, prev, img.NextSeq)
		}
		prev = rec.Seq
		l.records = append(l.records, rec)
		l.refLocked(rec, 1)
	}
	return l, nil
}

// Restore replaces l's records and counters with those of from, a log
// fresh from Load that nothing else references. l keeps its identity and
// its cancel observer, so whoever holds l sees the restored state.
func (l *Log) Restore(from *Log) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.records, l.barrier, l.refs = from.records, 0, from.refs
	l.nextSeq, l.savedBytes, l.savedRecs, l.optimize = from.nextSeq, from.savedBytes, from.savedRecs, from.optimize
}
