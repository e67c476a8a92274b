package venus

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/codafs"
	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/wire"
)

// HDBEntry is one hoard database entry: keep Path cached at Priority;
// Children extends the entry to all descendants (meta-expansion).
type HDBEntry struct {
	Path     string
	Priority int
	Children bool
}

// HoardAdd inserts or updates an HDB entry. Nothing is fetched immediately;
// that is deferred to a future hoard walk (§4.4.2). The HDB is part of the
// durable state (it encodes the user's priorities across restarts), so the
// change is journaled before it is applied.
func (v *Venus) HoardAdd(path string, priority int, children bool) {
	e := HDBEntry{Path: path, Priority: priority, Children: children}
	v.journalRef().note(journalEntry{Op: jHoardAdd, HDB: e})
	v.mu.Lock()
	defer v.mu.Unlock()
	v.hdb[path] = &e
}

// HoardRemove deletes an HDB entry.
func (v *Venus) HoardRemove(path string) {
	v.journalRef().note(journalEntry{Op: jHoardRemove, Path: path})
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.hdb, path)
}

// HoardList returns the HDB sorted by descending priority, then path.
func (v *Venus) HoardList() []HDBEntry {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]HDBEntry, 0, len(v.hdb))
	for _, e := range v.hdb {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority > out[j].Priority
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// hoardTick runs a hoard walk every HoardInterval (10 minutes by
// default), until the first tick after Close.
func (v *Venus) hoardTick() bool {
	if v.isClosed() {
		return false
	}
	_ = v.HoardWalk()
	return true
}

// walkCand is an object the status walk decided could be fetched.
type walkCand struct {
	vc   *vclient
	fid  codafs.FID
	item WalkItem
}

// HoardWalk executes one hoard walk (§4.4.3): a status walk that validates
// suspect objects and determines what is missing, an interactive phase that
// lets the user limit the data walk while weakly connected, a data walk
// that fetches the approved objects, and finally the acquisition of fresh
// volume stamps, which is what makes the rapid validation of §4.2 possible
// at the next reconnection.
func (v *Venus) HoardWalk() error {
	state := v.State()
	if state == Emulating {
		return ErrDisconnected
	}
	// Walks never overlap: a daemon-triggered walk that collides with an
	// explicit one is simply skipped (the explicit walk does its work).
	v.mu.Lock()
	if v.walking {
		v.mu.Unlock()
		return nil
	}
	v.walking = true
	v.mu.Unlock()
	defer func() {
		v.mu.Lock()
		v.walking = false
		v.mu.Unlock()
	}()

	v.met.hoardWalks.Inc()
	sp := v.met.reg.StartSpan(v.met.self, "venus_hoard_walk", obs.SpanContext{})
	defer sp.End()
	sc := sp.Context()
	phaseStart := v.clock.Now()
	endPhase := func(name string) {
		now := v.clock.Now()
		v.met.hoardPhase[name].Observe(now.Sub(phaseStart).Microseconds())
		phaseStart = now
	}

	// ---- Phase 1: status walk ----
	v.revalidateSuspects()
	cands := v.statusWalk(state)
	endPhase("status_walk")

	// ---- Phase 2: interactive approval (Figure 6) ----
	approved := cands
	if state == WriteDisconnected && len(cands) > 0 {
		needAsk := false
		for _, c := range cands {
			if !c.item.PreApproved {
				needAsk = true
				break
			}
		}
		if needAsk {
			items := make([]WalkItem, len(cands))
			for i, c := range cands {
				items[i] = c.item
			}
			verdicts := v.cfg.Advisor.ApproveDataWalk(items)
			approved = approved[:0]
			for i, c := range cands {
				if i < len(verdicts) && verdicts[i] {
					approved = append(approved, c)
				}
			}
		}
	}

	endPhase("approval")

	// ---- Phase 3: data walk ----
	for _, c := range approved {
		if v.isClosed() || v.State() == Emulating {
			return ErrDisconnected
		}
		v.fetchForHoard(c.vc, c.fid, c.item.Priority, sc)
	}
	endPhase("data_walk")

	// ---- Phase 4: volume stamps (§4.2.2) ----
	v.acquireVolumeStamps(sc)
	endPhase("stamps")
	return nil
}

// revalidateSuspects batch-validates every cached object whose validity is
// unknown. With volume callbacks disabled (the Figure 8 baseline) this is
// the entire validation mechanism.
func (v *Venus) revalidateSuspects() {
	v.mu.Lock()
	var suspects []*fso
	for _, f := range v.cache.all() {
		if !f.valid && !f.dirty {
			suspects = append(suspects, f)
		}
	}
	v.mu.Unlock()
	if len(suspects) == 0 {
		return
	}
	// By vnode, and among equal vnodes of different volumes by FID, so
	// the batches do not depend on the cache's map order.
	slices.SortFunc(suspects, func(a, b *fso) int {
		fa, fb := a.obj.Status.FID, b.obj.Status.FID
		return cmp.Or(cmp.Compare(fa.Vnode, fb.Vnode), fa.Compare(fb))
	})

	const batch = 50
	for lo := 0; lo < len(suspects); lo += batch {
		hi := lo + batch
		if hi > len(suspects) {
			hi = len(suspects)
		}
		group := suspects[lo:hi]
		req := wire.ValidateObjects{Objects: make([]wire.FIDVersion, len(group))}
		v.mu.Lock()
		for i, f := range group {
			req.Objects[i] = wire.FIDVersion{FID: f.obj.Status.FID, Version: f.obj.Status.Version}
		}
		v.mu.Unlock()

		rep, err := callAny[wire.ValidateObjectsRep](v, req, rpc2.CallOpts{})
		if err != nil {
			return // validated lazily on demand instead
		}
		v.mu.Lock()
		v.stats.ObjValidations += int64(len(group))
		for i, f := range group {
			if rep.Valid[i] {
				f.valid = true
				f.hasCallback = true
				continue
			}
			if rep.Statuses[i].FID.IsZero() {
				// Removed on the server.
				v.cache.remove(f.obj.Status.FID)
				continue
			}
			// Changed: keep fresh status, drop stale contents.
			f.obj.Status = rep.Statuses[i]
			f.obj.Data = nil
			f.obj.Children = nil
			f.placeholder = true
			f.valid = true
			f.hasCallback = true
			v.cache.recharge(f)
		}
		v.mu.Unlock()
	}
}

// statusWalk resolves HDB entries (including meta-expansion of Children
// entries) and returns fetch candidates with cost estimates.
func (v *Venus) statusWalk(state State) []walkCand {
	var cands []walkCand
	seen := make(map[codafs.FID]bool)
	for _, e := range v.HoardList() {
		vc, f, err := v.resolve(e.Path, false)
		if err != nil {
			continue // unreachable entry; retried next walk
		}
		v.addCandidate(&cands, seen, vc, f, e.Path, e.Priority, state)
		if e.Children && f.obj.Status.Type == codafs.Directory {
			v.expandChildren(&cands, seen, vc, e.Path, e.Priority, state, 0)
		}
	}
	return cands
}

// expandChildren walks a hoarded subtree, adding every descendant as a
// candidate (Coda's meta-expansion).
func (v *Venus) expandChildren(cands *[]walkCand, seen map[codafs.FID]bool, vc *vclient, dirPath string, pri int, state State, depth int) {
	if depth > 16 {
		return
	}
	_, dir, err := v.resolve(dirPath, true) // directory contents needed to enumerate
	if err != nil {
		return
	}
	v.mu.Lock()
	names := dir.listing() // never written, so safe to range after Unlock
	v.mu.Unlock()
	for _, name := range names {
		childPath := dirPath + "/" + name
		_, f, err := v.resolve(childPath, false)
		if err != nil {
			continue
		}
		v.addCandidate(cands, seen, vc, f, childPath, pri, state)
		if f.obj.Status.Type == codafs.Directory {
			v.expandChildren(cands, seen, vc, childPath, pri, state, depth+1)
		}
	}
}

func (v *Venus) addCandidate(cands *[]walkCand, seen map[codafs.FID]bool, vc *vclient, f *fso, path string, pri int, state State) {
	v.mu.Lock()
	defer v.mu.Unlock()
	fid := f.obj.Status.FID
	if seen[fid] {
		return
	}
	seen[fid] = true
	if f.hoardPri < pri {
		f.hoardPri = pri
	}
	if !f.placeholder {
		return // contents already cached
	}
	size := f.obj.Status.Length
	cost := v.costVia(v.cfg.Servers[vc.pref], size) + v.costPenaltyLocked(size)
	tau := v.cfg.Patience.Threshold(pri)
	*cands = append(*cands, walkCand{
		vc:  vc,
		fid: fid,
		item: WalkItem{
			Path: path, Priority: pri, Size: size, Cost: cost,
			PreApproved: state == Hoarding || cost <= tau,
		},
	})
}

// fetchForHoard fetches one approved object, bypassing the patience check
// (approval came from the model or the user).
func (v *Venus) fetchForHoard(vc *vclient, fid codafs.FID, pri int, sc obs.SpanContext) {
	var size int64
	v.mu.Lock()
	if f := v.cache.get(fid); f != nil {
		if !f.placeholder {
			if f.hoardPri < pri {
				f.hoardPri = pri
			}
			v.mu.Unlock()
			return
		}
		size = f.obj.Status.Length
	}
	v.mu.Unlock()
	if _, err := v.fetchSingleFlight(vc, fid, size, sc); err != nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if f := v.cache.get(fid); f != nil && f.hoardPri < pri {
		f.hoardPri = pri
	}
}

// acquireVolumeStamps caches a fresh stamp (and volume callback) for every
// mounted volume. All cached objects are known valid at this point, so the
// mutual consistency of volume and object state costs nothing (§4.2.1).
func (v *Venus) acquireVolumeStamps(sc obs.SpanContext) {
	if v.cfg.DisableVolumeCallbacks {
		return
	}
	v.mu.Lock()
	vols := v.volumeList()
	v.mu.Unlock()
	for _, vc := range vols {
		rep, err := callVol[wire.GetVolumeStampRep](v, vc,
			wire.GetVolumeStamp{Volume: vc.info.ID}, rpc2.CallOpts{Span: sc})
		if err != nil {
			continue
		}
		v.mu.Lock()
		vc.stamp = rep.Stamp
		vc.hasStamp = true
		v.mu.Unlock()
	}
}
