package venus

import (
	"errors"
	"fmt"
	"path"
	"strings"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/wire"
)

// program tags misses with the referencing program for the Figure 5 screen;
// it is advisory and settable by embedding applications.
func (v *Venus) SetProgram(name string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.program = name
}

// ---- Path resolution ----

// memoDepth bounds what the memo keeps of one path, so an entry lives in
// the map itself; a deeper path walks every time.
const memoDepth = 8

// memoEntry is walk's memo of one spelling: the volume and the objects
// its last walk passed, root first.
type memoEntry struct {
	vc    *vclient
	chain [memoDepth]*fso
	n     int
}

// usableLocked is the cache-hit rule: f can be served without the server.
// It must hold its contents if the caller wants them, even when dirty: a
// logged rename, link, remove or setattr dirties an object it knows only
// by status. Dirty objects are local truth, served regardless of
// callbacks; otherwise the copy must be valid — or Venus disconnected,
// when cached data is used as-is.
func (v *Venus) usableLocked(f *fso, wantData bool) bool {
	if f == nil || (wantData && f.placeholder) {
		return false
	}
	return f.dirty || f.valid || v.state == Emulating
}

// resolve walks path to its object, fetching intermediate directories (and,
// when wantData is set, the object's own contents) as needed.
func (v *Venus) resolve(path string, wantData bool) (*vclient, *fso, error) {
	return v.walk(path, wantData)
}

// walk is the one path walk. Under v.mu it passes the components of the
// cleaned spelling, root first, counting each usable copy (usableLocked;
// a directory on the way is wanted whole) as a hit: cache.touch and
// met.hit. At the first object the cache cannot serve it drops v.mu for
// getObject, which fetches the object or refuses and counts that lookup
// itself, and resumes from what it returned. The path getObject sees
// (miss record, patience, span) is a prefix of the cleaned spelling.
//
// A spelling that resolved is memoized, and a repeat is served from the
// memo without parsing: until the namespace generation (cache.gen)
// moves, a walk passes the same objects, so only their usability is
// checked again; a repeat that fails the check walks. Older entries go
// before the memo is read, a walk the generation moved under (a fetch
// replaced a directory, a rename landed while v.mu was dropped)
// memoizes nothing, and the memo never holds more current entries than
// the cache holds objects.
func (v *Venus) walk(spelling string, wantData bool) (*vclient, *fso, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return nil, nil, ErrClosed
	}
	if v.memoGen != v.cache.gen {
		clear(v.memo)
		v.memoGen = v.cache.gen
	}
	e, ok := v.memo[spelling]
	for i := 0; ok && i < e.n; i++ {
		ok = v.usableLocked(e.chain[i], i < e.n-1 || wantData)
	}
	if ok {
		for _, f := range e.chain[:e.n] {
			v.cache.touch(f)
			v.met.hit(f.hoardPri)
		}
		return e.vc, e.chain[e.n-1], nil
	}

	const prefix = codafs.MountPrefix + "/"
	p := path.Clean(spelling)
	if !strings.HasPrefix(p, prefix) {
		return nil, nil, fmt.Errorf("venus: %s names no volume under %s", p, codafs.MountPrefix)
	}
	// more: a slash, and so another component, follows p[:end].
	name, rest, more := strings.Cut(p[len(prefix):], "/")
	if e = (memoEntry{vc: v.volumes[name]}); e.vc == nil {
		return nil, nil, fmt.Errorf("venus: volume %q not mounted: %w", name, ErrNotFound)
	}
	gen, fid, end := v.cache.gen, e.vc.root, len(prefix)+len(name)
	var f *fso
	for {
		if f = v.cache.get(fid); v.usableLocked(f, more || wantData) {
			v.cache.touch(f)
			v.met.hit(f.hoardPri)
		} else {
			v.mu.Unlock()
			var err error
			f, err = v.getObject(e.vc, fid, p[:end], more || wantData)
			v.mu.Lock()
			if err != nil {
				return nil, nil, err
			}
		}
		if e.n++; e.n <= memoDepth {
			e.chain[e.n-1] = f
		}
		if !more {
			break
		}
		if f.obj.Status.Type != codafs.Directory {
			return nil, nil, fmt.Errorf("venus: %s: %w", p[:end], ErrNotDir)
		}
		name, rest, more = strings.Cut(rest, "/")
		child, ok := f.obj.Children[name]
		if end += 1 + len(name); !ok {
			return nil, nil, fmt.Errorf("venus: %s: %w", p[:end], ErrNotFound)
		}
		fid = child
	}
	if e.n <= memoDepth && v.cache.gen == gen {
		if v.memo == nil || len(v.memo) >= v.cache.count() {
			v.memo = make(map[string]memoEntry)
		}
		v.memo[spelling] = e
	}
	return e.vc, f, nil
}

// resolveParent is walk stopped one component early: it returns the
// parent directory and the final name. A path naming no object in a
// volume is refused, here or by walk, before anything is counted.
func (v *Venus) resolveParent(spelling string) (*vclient, *fso, string, error) {
	p := path.Clean(spelling)
	i := strings.LastIndexByte(p, '/')
	if i <= len(codafs.MountPrefix) {
		return nil, nil, "", fmt.Errorf("venus: %s names no object in a volume", p)
	}
	vc, parent, err := v.walk(p[:i], true)
	if err != nil {
		return nil, nil, "", err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if parent.obj.Status.Type != codafs.Directory {
		return nil, nil, "", fmt.Errorf("venus: %s: %w", p[:i], ErrNotDir)
	}
	return vc, parent, p[i+1:], nil
}

// ---- Miss handling (§4.4.1) ----

// estimateCost predicts the service time for fetching size bytes from
// the volume's preferred member at the current bandwidth estimate.
func (v *Venus) estimateCost(vc *vclient, size int64) time.Duration {
	return v.costVia(v.prefAddr(vc), size)
}

// costVia predicts the service time for fetching size bytes over the
// link to one member. Safe to call with v.mu held (addCandidate does).
func (v *Venus) costVia(addr string, size int64) time.Duration {
	peer := v.peerOf(addr)
	bw := peer.Bandwidth()
	if bw <= 0 {
		return 0 // no estimate yet: be optimistic
	}
	xfer := time.Duration(float64(size*8) / float64(bw) * float64(time.Second))
	return xfer + peer.SRTT() // one request/response round trip
}

// priorityOf returns the hoard priority governing path's patience
// threshold: an exact HDB entry, else the nearest ancestor entry covering
// descendants, else the configured default.
func (v *Venus) priorityOf(path string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	if e, ok := v.hdb[path]; ok {
		return e.Priority
	}
	best := v.cfg.DefaultPriority
	for p, e := range v.hdb {
		if e.Children && len(path) > len(p) && path[:len(p)] == p && path[len(p)] == '/' {
			if e.Priority > best {
				best = e.Priority
			}
		}
	}
	return best
}

// getObject returns the cached object for fid, obtaining status and (if
// wantData) contents from the server subject to the state machine and the
// patience model.
func (v *Venus) getObject(vc *vclient, fid codafs.FID, path string, wantData bool) (*fso, error) {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return nil, ErrClosed
	}
	f := v.cache.get(fid)
	state := v.state

	if v.usableLocked(f, wantData) {
		v.cache.touch(f)
		v.met.hit(f.hoardPri)
		v.mu.Unlock()
		return f, nil
	}
	if state == Emulating {
		// Disconnected: what the cache cannot serve is an unserviceable
		// miss.
		v.stats.DisconnectedMisses++
		if f != nil {
			v.met.miss(f.hoardPri)
		} else {
			v.met.miss(0)
		}
		prog := v.program
		v.mu.Unlock()
		v.recordMiss(MissRecord{Time: v.clock.Now(), Path: path, Program: prog})
		return nil, &MissError{Path: path, Disconnected: true}
	}
	v.mu.Unlock()

	v.beginForeground()
	defer v.endForeground()

	// Server interaction is unavoidable from here on: this is the root of
	// one traced open — status checks, the patience wait, the transport's
	// retransmits, and the server's apply all hang off this span.
	sp := v.met.reg.StartSpan(v.met.self, "venus_open", obs.SpanContext{}, obs.F("path", path))
	defer sp.End()
	sc := sp.Context()

	// Revalidate a suspect cached object: one cheap status check; if the
	// version still matches, the copy is good and a fresh callback came
	// with the GetAttr. A dirty object is not: its status is local truth,
	// shown again on the fetched copy (overlayPendingLocked).
	var size int64 = -1
	if f != nil && !f.valid && !f.dirty {
		ga, err := callVol[wire.GetAttrRep](v, vc, wire.GetAttr{FID: fid, WantCallback: true}, rpc2.CallOpts{Span: sc})
		if err != nil {
			return nil, v.rpcFailed(path, err)
		}
		v.mu.Lock()
		v.stats.ObjValidations++
		if ga.Status.Version == f.obj.Status.Version {
			f.valid = true
			f.hasCallback = true
			if !wantData || !f.placeholder {
				v.cache.touch(f)
				v.met.hit(f.hoardPri)
				v.mu.Unlock()
				return f, nil
			}
		} else {
			// Changed on the server: treat as a miss of the new size.
			f.placeholder = true
			f.obj.Status = ga.Status
		}
		size = ga.Status.Length
		v.mu.Unlock()
	}

	// Unknown object: obtain status first — it is only ~100 bytes, so
	// the delay is acceptable even on slow networks (§4.4.1).
	if f == nil {
		ga, err := callVol[wire.GetAttrRep](v, vc, wire.GetAttr{FID: fid, WantCallback: true}, rpc2.CallOpts{Span: sc})
		if err != nil {
			return nil, v.rpcFailed(path, err)
		}
		size = ga.Status.Length
		v.mu.Lock()
		obj := &codafs.Object{Status: ga.Status}
		f = v.cache.install(obj, false)
		f.placeholder = true
		f.hasCallback = true
		v.mu.Unlock()
		if !wantData {
			return f, nil
		}
	}

	if !wantData {
		return f, nil
	}
	if size < 0 {
		size = f.obj.Status.Length
	}

	// A data fetch is now unavoidable: this is a cache miss in the
	// object's hoard band, whatever the patience verdict below.
	v.mu.Lock()
	missPri := f.hoardPri
	v.mu.Unlock()
	v.met.miss(missPri)

	// The patience check applies to data fetches while weakly connected.
	// Monetary network cost is folded in as patience-equivalent seconds
	// (cost-aware adaptation, paper §8 future work).
	if state == WriteDisconnected {
		cost := v.estimateCost(vc, size) + v.costPenalty(size)
		pri := v.priorityOf(path)
		tau := DefaultPatience().Threshold(pri)
		if cost > tau {
			v.mu.Lock()
			v.stats.DeferredMisses++
			prog := v.program
			v.mu.Unlock()
			v.recordMiss(MissRecord{
				Time: v.clock.Now(), Path: path, Size: size,
				Program: prog, Cost: cost, Threshold: tau,
			})
			return nil, &MissError{Path: path, Size: size, Cost: cost, Threshold: tau}
		}
	}

	f, err := v.fetchSingleFlight(vc, fid, size, sc)
	if err != nil {
		return nil, v.rpcFailed(path, err)
	}
	if state == WriteDisconnected {
		v.mu.Lock()
		v.stats.TransparentFetches++
		v.mu.Unlock()
	}
	return f, nil
}

// fetchSingleFlight fetches fid's full contents, coalescing concurrent
// fetches of the same object (a hoard walk and a foreground miss must not
// compete for a slow link over the same bytes). The timeout adapts to the
// object's size at the current bandwidth. Time spent parked behind
// another goroutine's in-flight fetch is recorded as a
// venus_patience_wait span on a traced operation.
func (v *Venus) fetchSingleFlight(vc *vclient, fid codafs.FID, size int64, sc obs.SpanContext) (*fso, error) {
	var waitStart time.Time
	endWait := func() {
		if !waitStart.IsZero() && sc.Valid() {
			v.met.reg.SpanAt(v.met.self, "venus_patience_wait", sc, waitStart).End()
		}
	}
	for {
		v.mu.Lock()
		if f := v.cache.get(fid); f != nil && !f.placeholder && f.valid {
			v.cache.touch(f)
			v.mu.Unlock()
			endWait()
			return f, nil
		}
		if !v.fetching[fid] {
			v.fetching[fid] = true
			v.mu.Unlock()
			break
		}
		v.mu.Unlock()
		if waitStart.IsZero() {
			waitStart = v.clock.Now()
		}
		// Another goroutine is fetching this object; wait for it.
		v.clock.Sleep(200 * time.Millisecond)
		if v.isClosed() {
			endWait()
			return nil, ErrClosed
		}
	}
	endWait()
	defer func() {
		v.mu.Lock()
		delete(v.fetching, fid)
		v.mu.Unlock()
	}()

	timeout := 2*v.estimateCost(vc, size) + 2*time.Minute
	rep, err := callVol[wire.FetchRep](v, vc,
		wire.Fetch{FID: fid, WantCallback: true}, rpc2.CallOpts{Timeout: timeout, Span: sc})
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	need := int64(len(rep.Object.Data)) + int64(len(rep.Object.Children))*32
	v.cache.evictFor(need)
	pri := 0
	if old := v.cache.get(fid); old != nil {
		pri = old.hoardPri
	}
	f := v.cache.install(&rep.Object, false)
	f.hasCallback = true
	f.hoardPri = pri
	v.overlayPendingLocked(f)
	return f, nil
}

// overlayPendingLocked shows the pending CML records in a freshly fetched
// directory, or in an object that was dirty before the fetch: the
// server's copy cannot yet show the client's own unreintegrated creates,
// removes, renames, links and setattrs (relevant after a restore whose
// directories were not cached, or a logged update of an object cached
// only by status). Each record's effect runs restricted to the object, as
// if nothing else were cached.
func (v *Venus) overlayPendingLocked(f *fso) {
	if vc := v.volByID[f.obj.Status.FID.Volume]; vc != nil && (f.obj.Status.Type == codafs.Directory || f.dirty) {
		for _, rec := range vc.log.Records() {
			v.applyLocked(rec, true, f.obj.Status.FID)
		}
	}
}

func (v *Venus) recordMiss(m MissRecord) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.misses = append(v.misses, m)
	if len(v.misses) > 1000 {
		v.misses = v.misses[len(v.misses)-1000:]
	}
}

// Misses drains the deferred-miss list (the data behind Figure 5).
func (v *Venus) Misses() []MissRecord {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := v.misses
	v.misses = nil
	return out
}

// rpcFailed classifies a server RPC failure: timeouts demote Venus to
// emulating (the server is unreachable) and surface as disconnected misses;
// other errors pass through.
func (v *Venus) rpcFailed(path string, err error) error {
	if errors.Is(err, rpc2.ErrTimeout) {
		v.transition(Emulating, "server unreachable")
		return &MissError{Path: path, Disconnected: true}
	}
	return err
}

// ---- Read operations ----

// ReadFile returns the contents of the file at path in a fresh slice;
// ViewFile is the read that does not copy.
func (v *Venus) ReadFile(path string) ([]byte, error) {
	return v.AppendFile(nil, path)
}

// AppendFile appends the contents of the file at path to dst and returns
// the extended slice, so a caller that reads many files can reuse one
// buffer. The bytes are copied: the result never aliases the cache. On
// error it returns dst unchanged.
func (v *Venus) AppendFile(dst []byte, path string) ([]byte, error) {
	view, err := v.ViewFile(path)
	if err != nil {
		return dst, err
	}
	return append(dst, view...), nil
}

// ViewFile returns the cached contents of the file at path without
// copying them. The result aliases the cache and is read-only: the
// caller must not write through it. It stays a snapshot of the contents
// at the time of the call, because Venus never writes into a contents
// slice, only replaces it (codafs.Object); its capacity is capped at its
// length, so an append reallocates rather than reaching the cache.
func (v *Venus) ViewFile(path string) ([]byte, error) {
	_, f, err := v.resolve(path, true)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if f.obj.Status.Type != codafs.File {
		return nil, fmt.Errorf("venus: %s: %w", path, ErrIsDir)
	}
	n := len(f.obj.Data)
	return f.obj.Data[:n:n], nil
}

// Stat returns the status of the object at path without fetching contents.
func (v *Venus) Stat(path string) (codafs.Status, error) {
	_, f, err := v.resolve(path, false)
	if err != nil {
		return codafs.Status{}, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return f.obj.Status, nil
}

// ReadDir lists the directory at path, in name order, in a fresh slice.
func (v *Venus) ReadDir(path string) ([]string, error) {
	return v.AppendDir(nil, path)
}

// AppendDir appends the names in the directory at path, in sorted order,
// to dst and returns the extended slice, so a caller that lists many
// directories can reuse one slice. The names are copied from the listing
// the cache keeps with the directory (fso.listing): the result never
// aliases it. On error it returns dst unchanged.
func (v *Venus) AppendDir(dst []string, path string) ([]string, error) {
	_, f, err := v.resolve(path, true)
	if err != nil {
		return dst, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if f.obj.Status.Type != codafs.Directory {
		return dst, fmt.Errorf("venus: %s: %w", path, ErrNotDir)
	}
	return append(dst, f.listing()...), nil
}

// ReadLink returns the symlink target at path.
func (v *Venus) ReadLink(path string) (string, error) {
	_, f, err := v.resolve(path, true)
	if err != nil {
		return "", err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if f.obj.Status.Type != codafs.Symlink {
		return "", fmt.Errorf("venus: %s: not a symlink", path)
	}
	return f.obj.Target, nil
}

// ---- Write operations ----

// update routes one mutation (§4.3); every operation below resolves its
// objects, checks them under v.mu, describes the change as one cml.Record
// and ends here. While hoarding the record is written through — sent as
// the connected-mode request of its kind (wire.MutationOf) — and an
// answer, reply or refusal, is final. A timeout is not an answer: Venus
// demotes to emulating, and the update goes the way of any made weakly
// connected or disconnected — logged (durably, journal first) for later
// reintegration, any modification time it carries re-read after the
// timed-out attempt has burned its wait.
//
// state is what the caller read under the same hold of v.mu as its
// checks. If and only if the update took effect, the cache shows it
// (showLocked).
func (v *Venus) update(vc *vclient, state State, rec *cml.Record, opts rpc2.CallOpts) error {
	if state == Hoarding {
		rep, err := callVol[wire.MutateRep](v, vc, wire.MutationOf(rec), opts)
		if err == nil {
			v.mu.Lock()
			v.showLocked(rec, &rep)
			vc.noteStamp(rep.VolStamp)
			v.mu.Unlock()
			return nil
		}
		if !errors.Is(err, rpc2.ErrTimeout) {
			return err
		}
		v.transition(Emulating, "server unreachable")
	}
	now := v.clock.Now()
	if !rec.ModTime.IsZero() {
		rec.ModTime = now
	}
	if err := v.logAppend(vc, *rec, now); err != nil {
		return err
	}
	v.mu.Lock()
	v.showLocked(rec, nil)
	if rec.Kind == cml.Store {
		v.cache.evictFor(0)
	}
	v.mu.Unlock()
	return nil
}

// showLocked makes the cache show rec, written through (rep is the
// server's reply), logged, or restored from the CML (rep nil): rec's
// effect (applyLocked) and what only a client keeps — a logged store's
// delta base, a written-through update's statuses from the reply. An
// uncached directory shows rec's entry when it is fetched
// (overlayPendingLocked). showLocked evicts nothing: a logged store
// makes room afterwards (update), and a restore never, so no object a
// later restored record names is dropped mid-restore.
func (v *Venus) showLocked(rec *cml.Record, rep *wire.MutateRep) {
	logged := rep == nil
	if f := v.cache.get(rec.FID); f != nil && rec.Kind == cml.Store {
		if logged && v.cfg.EnableDeltas && !f.dirty && !f.placeholder &&
			f.obj.Status.Version > 0 && len(f.obj.Data) >= 2048 {
			// Shadow the last server-known contents so reintegration
			// can ship a difference instead of the whole file.
			f.base = f.obj.Data
		}
		f.placeholder = false
	}
	v.applyLocked(rec, logged, codafs.FID{})
	switch rec.Kind {
	case cml.Create, cml.Mkdir, cml.MakeSymlink:
		if p := v.cache.get(rec.Parent); p != nil && !p.placeholder {
			v.cache.touch(p)
			if !logged {
				p.obj.Status = rep.ParentStatus
			}
		}
		fallthrough
	case cml.Store, cml.SetAttr:
		if f := v.cache.get(rec.FID); f != nil && !logged {
			f.obj.Status = rep.Status
			f.hasCallback = f.hasCallback || rec.Kind != cml.SetAttr
		}
	}
}

// applyLocked runs rec's effect on the cache through v's one view of it;
// a logged effect dirties what it changes, and a non-zero only restricts
// it to that directory.
func (v *Venus) applyLocked(rec *cml.Record, logged bool, only codafs.FID) {
	v.view = cacheView{c: v.cache, own: rec.FID, only: only, logged: logged}
	rec.Apply(&v.view)
}

// cacheView is the cml.Objects a record's effect runs against in Venus:
// the cache, with the bookkeeping only a client keeps. A placeholder
// holds no contents or entries to change, so Get shows only the record's
// own object (own) as a placeholder, whose status the effect may still
// change; a touched object is recharged, and dirtied if the effect is
// logged. Restricted to one directory (only), the view shows nothing else
// and neither makes nor drops an object. Venus keeps one, used under
// v.mu, so handing it to Apply as an interface allocates nothing.
type cacheView struct {
	c         *cache
	own, only codafs.FID
	logged    bool
}

func (w *cacheView) lookup(fid codafs.FID) *fso {
	if !w.only.IsZero() && fid != w.only {
		return nil
	}
	return w.c.get(fid)
}

func (w *cacheView) Get(fid codafs.FID) *codafs.Object {
	if f := w.lookup(fid); f != nil && (!f.placeholder || fid == w.own) {
		return f.obj
	}
	return nil
}

func (w *cacheView) Touch(fid codafs.FID) {
	if f := w.lookup(fid); f != nil {
		w.c.recharge(f)
		f.dirty = f.dirty || w.logged
	}
}

func (w *cacheView) Put(o *codafs.Object) {
	if w.only.IsZero() {
		w.c.install(o, w.logged)
	}
}

func (w *cacheView) Drop(fid codafs.FID) {
	if w.only.IsZero() {
		w.c.remove(fid)
	}
}

// WriteFile stores data at path, creating the file if needed (open-close
// session semantics: one call is one close-after-write). data is copied
// once, for cache entry, CML record and request alike (codafs.Object).
func (v *Venus) WriteFile(path string, data []byte) error {
	vc, parent, name, err := v.resolveParent(path)
	if err != nil {
		return err
	}
	if !codafs.ValidName(name) {
		return fmt.Errorf("venus: invalid name %q", name)
	}

	v.mu.Lock()
	fid, exists := parent.obj.Children[name]
	v.mu.Unlock()

	if !exists {
		if err := v.makeObject(vc, parent, name, codafs.File, ""); err != nil {
			return err
		}
		v.mu.Lock()
		fid = parent.obj.Children[name]
		v.mu.Unlock()
	}

	f, err := v.getObject(vc, fid, path, false)
	if err != nil {
		return err
	}
	data = append([]byte(nil), data...)
	v.mu.Lock()
	if f.obj.Status.Type != codafs.File {
		v.mu.Unlock()
		return fmt.Errorf("venus: %s: %w", path, ErrIsDir)
	}
	rec := cml.Record{
		Kind: cml.Store, FID: fid, Parent: parent.obj.Status.FID, Name: name,
		Data: data, Length: int64(len(data)), ModTime: v.clock.Now(),
		PrevVersion: f.obj.Status.Version, Owner: v.owner,
	}
	state := v.state
	v.mu.Unlock()

	return v.update(vc, state, &rec, rpc2.CallOpts{Timeout: 10 * time.Minute})
}

// Mkdir creates a directory at path.
func (v *Venus) Mkdir(path string) error {
	vc, parent, name, err := v.resolveParent(path)
	if err != nil {
		return err
	}
	return v.makeObject(vc, parent, name, codafs.Directory, "")
}

// Symlink creates a symbolic link at path pointing at target.
func (v *Venus) Symlink(target, path string) error {
	vc, parent, name, err := v.resolveParent(path)
	if err != nil {
		return err
	}
	return v.makeObject(vc, parent, name, codafs.Symlink, target)
}

// makeObject creates a file/dir/symlink under parent.
func (v *Venus) makeObject(vc *vclient, parent *fso, name string, typ codafs.ObjType, target string) error {
	if !codafs.ValidName(name) {
		return fmt.Errorf("venus: invalid name %q", name)
	}
	kind := cml.Create
	switch typ {
	case codafs.Directory:
		kind = cml.Mkdir
	case codafs.Symlink:
		kind = cml.MakeSymlink
	}
	v.mu.Lock()
	if _, dup := parent.obj.Children[name]; dup {
		v.mu.Unlock()
		return fmt.Errorf("venus: %s: %w", name, ErrExist)
	}
	rec := cml.Record{
		Kind: kind, FID: v.allocFID(vc.info.ID), Parent: parent.obj.Status.FID, Name: name, Target: target,
		ModTime: v.clock.Now(), Owner: v.owner, PrevParentVersion: parent.obj.Status.Version,
	}
	state := v.state
	v.mu.Unlock()

	return v.update(vc, state, &rec, rpc2.CallOpts{})
}

// Remove unlinks the file or symlink at path.
func (v *Venus) Remove(path string) error { return v.removeCommon(path, false) }

// Rmdir removes the empty directory at path.
func (v *Venus) Rmdir(path string) error { return v.removeCommon(path, true) }

func (v *Venus) removeCommon(path string, rmdir bool) error {
	vc, parent, name, err := v.resolveParent(path)
	if err != nil {
		return err
	}
	_, target, err := v.resolve(path, rmdir) // dirs need contents to check emptiness
	if err != nil {
		return err
	}
	v.mu.Lock()
	isDir := target.obj.Status.Type == codafs.Directory
	kind := cml.Remove
	if rmdir {
		kind = cml.Rmdir
		if !isDir {
			v.mu.Unlock()
			return fmt.Errorf("venus: %s: %w", path, ErrNotDir)
		}
		if len(target.obj.Children) > 0 {
			v.mu.Unlock()
			return fmt.Errorf("venus: %s: %w", path, ErrNotEmpty)
		}
	} else if isDir {
		v.mu.Unlock()
		return fmt.Errorf("venus: %s: %w", path, ErrIsDir)
	}
	rec := cml.Record{
		Kind: kind, FID: target.obj.Status.FID, Parent: parent.obj.Status.FID, Name: name,
		PrevVersion: target.obj.Status.Version, Owner: v.owner,
	}
	state := v.state
	v.mu.Unlock()

	return v.update(vc, state, &rec, rpc2.CallOpts{})
}

// Rename moves oldPath to newPath within one volume.
func (v *Venus) Rename(oldPath, newPath string) error {
	vc, oldParent, oldName, err := v.resolveParent(oldPath)
	if err != nil {
		return err
	}
	vcNew, newParent, newName, err := v.resolveParent(newPath)
	if err != nil {
		return err
	}
	if vc != vcNew {
		return fmt.Errorf("venus: rename across volumes")
	}
	if strings.HasPrefix(path.Clean(newPath), path.Clean(oldPath)+"/") {
		return fmt.Errorf("venus: rename %s into its own subtree", oldPath)
	}
	v.mu.Lock()
	fid, ok := oldParent.obj.Children[oldName]
	if !ok {
		v.mu.Unlock()
		return fmt.Errorf("venus: %s: %w", oldPath, ErrNotFound)
	}
	if _, taken := newParent.obj.Children[newName]; taken {
		v.mu.Unlock()
		return fmt.Errorf("venus: %s: %w", newPath, ErrExist)
	}
	rec := cml.Record{
		Kind: cml.Rename, FID: fid, Parent: oldParent.obj.Status.FID, Name: oldName,
		NewParent: newParent.obj.Status.FID, NewName: newName, Owner: v.owner,
	}
	state := v.state
	v.mu.Unlock()

	return v.update(vc, state, &rec, rpc2.CallOpts{})
}

// Link creates a hard link at newPath to the file at existingPath.
func (v *Venus) Link(existingPath, newPath string) error {
	vc, target, err := v.resolve(existingPath, false)
	if err != nil {
		return err
	}
	vcP, parent, name, err := v.resolveParent(newPath)
	if err != nil {
		return err
	}
	if vc != vcP {
		return fmt.Errorf("venus: link across volumes")
	}
	v.mu.Lock()
	if target.obj.Status.Type == codafs.Directory {
		v.mu.Unlock()
		return fmt.Errorf("venus: %s: %w", existingPath, ErrIsDir)
	}
	if _, taken := parent.obj.Children[name]; taken {
		v.mu.Unlock()
		return fmt.Errorf("venus: %s: %w", newPath, ErrExist)
	}
	rec := cml.Record{
		Kind: cml.Link, FID: target.obj.Status.FID, Parent: parent.obj.Status.FID, Name: name, Owner: v.owner,
	}
	state := v.state
	v.mu.Unlock()

	return v.update(vc, state, &rec, rpc2.CallOpts{})
}

// SetAttr updates an object's mode bits.
func (v *Venus) SetAttr(path string, mode uint32) error {
	vc, f, err := v.resolve(path, false)
	if err != nil {
		return err
	}
	v.mu.Lock()
	rec := cml.Record{
		Kind: cml.SetAttr, FID: f.obj.Status.FID, Mode: mode, ModTime: v.clock.Now(),
		PrevVersion: f.obj.Status.Version, Owner: v.owner,
	}
	state := v.state
	v.mu.Unlock()

	return v.update(vc, state, &rec, rpc2.CallOpts{})
}

// noteStamp updates the cached volume stamp after this client's own
// connected-mode update; the client's volume callback remains intact, so
// the stamp stays usable (mirrors the server not breaking the updater's
// callback).
func (vc *vclient) noteStamp(stamp uint64) {
	if vc.hasStamp {
		vc.stamp = stamp
	}
}
