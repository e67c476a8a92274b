package venus

import (
	"sort"

	"repro/internal/codafs"
)

// fso is one cached file-system object ("file system object", as in Coda).
type fso struct {
	obj *codafs.Object

	// hasCallback: an object callback is believed held at the server.
	hasCallback bool
	// valid: the cached status is believed current, either via an object
	// callback or via the containing volume's callback. Suspect objects
	// (valid == false) are revalidated before use.
	valid bool
	// dirty: CML records referencing this object are pending; dirty
	// objects are never evicted or overwritten by fetches, and callback
	// breaks on them are deliberately ignored (§4.3.2).
	dirty bool
	// placeholder: status known, contents not fetched.
	placeholder bool
	// base shadows the last server-known contents of a dirty file, so
	// trickle reintegration can ship an rsync-style delta instead of the
	// whole file (EnableDeltas). nil when no usable base exists.
	base []byte
	// hoardPri is the HDB priority, 0 if unhoarded.
	hoardPri int
	// refSeq orders recency (larger = more recent).
	refSeq int64
	// charge is what the object counts against cache space (dataBytes)
	// as of the last install or recharge, so what is taken back on
	// removal is what was charged, whatever changed in between.
	charge int64
	// names is a directory's kept listing: its entry names, sorted, built
	// by listing on first use and dropped by cache.install and
	// cache.recharge. It is never written after it is built, so a holder
	// may keep the slice after releasing Venus.mu.
	names []string
}

// listing returns the directory's entry names in sorted order, building
// the kept listing if the entries changed since the last call. The slice
// is shared: read it or append from it, never write into it.
func (f *fso) listing() []string {
	if f.names == nil {
		f.names = f.obj.ChildNames()
	}
	return f.names
}

// dataBytes is the object's charge against cache space.
func (f *fso) dataBytes() int64 {
	if f.placeholder {
		return 0
	}
	return int64(len(f.obj.Data)) + int64(len(f.obj.Children))*32 + int64(len(f.obj.Target))
}

// cache is Venus's file cache. It implements the paper's policy of
// combining hoard priority with LRU recency: eviction removes the object
// with the lowest (hoard priority, recency) pair, never touching dirty
// objects or volume roots. It is guarded by Venus.mu.
type cache struct {
	capacity int64
	used     int64
	objs     map[codafs.FID]*fso
	seq      int64
}

func newCache(capacity int64) *cache {
	return &cache{capacity: capacity, objs: make(map[codafs.FID]*fso)}
}

func (c *cache) get(fid codafs.FID) *fso {
	return c.objs[fid]
}

// touch records a reference for recency.
func (c *cache) touch(f *fso) {
	c.seq++
	f.refSeq = c.seq
}

// install inserts or replaces an object, adjusting space accounting. The
// returned fso is valid (freshly obtained from the server) unless replacing
// a dirty local object, whose dirtiness it preserves.
func (c *cache) install(obj *codafs.Object, dirty bool) *fso {
	f := c.objs[obj.Status.FID]
	if f == nil {
		f = &fso{}
		c.objs[obj.Status.FID] = f
	}
	f.obj = obj
	f.placeholder = false
	f.valid = true
	f.dirty = f.dirty || dirty
	c.recharge(f)
	c.touch(f)
	return f
}

// recharge recomputes an object's space charge after in-place mutation.
// It is also where a directory's kept listing is dropped, by the one
// rule that keeps it true: every change to a cached directory's entries
// ends in recharge, or in install, which replaces the object.
func (c *cache) recharge(f *fso) {
	n := f.dataBytes()
	c.used += n - f.charge
	f.charge = n
	f.names = nil
}

// remove evicts fid.
func (c *cache) remove(fid codafs.FID) {
	if f := c.objs[fid]; f != nil {
		c.used -= f.charge
		delete(c.objs, fid)
	}
}

// bytesUsed returns occupied cache space.
func (c *cache) bytesUsed() int64 { return c.used }

// count returns the number of cached objects.
func (c *cache) count() int { return len(c.objs) }

// inVolume returns the cached objects belonging to vol.
func (c *cache) inVolume(vol codafs.VolumeID) []*fso {
	var out []*fso
	for fid, f := range c.objs {
		if fid.Volume == vol {
			out = append(out, f)
		}
	}
	return out
}

// all returns every cached object, in no particular order.
func (c *cache) all() []*fso {
	out := make([]*fso, 0, len(c.objs))
	for _, f := range c.objs {
		out = append(out, f)
	}
	return out
}

// evictFor frees space for an incoming object of size need. It evicts
// clean, non-root objects in ascending (hoardPri, refSeq) order. It reports
// whether the space is now available.
func (c *cache) evictFor(need int64) bool {
	if c.used+need <= c.capacity {
		return true
	}
	victims := make([]*fso, 0, len(c.objs))
	for _, f := range c.objs {
		if f.dirty || f.obj.Status.FID.Vnode == 1 { // never roots or dirty
			continue
		}
		if f.charge == 0 {
			continue
		}
		victims = append(victims, f)
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].hoardPri != victims[j].hoardPri {
			return victims[i].hoardPri < victims[j].hoardPri
		}
		return victims[i].refSeq < victims[j].refSeq
	})
	for _, f := range victims {
		if c.used+need <= c.capacity {
			break
		}
		c.remove(f.obj.Status.FID)
	}
	return c.used+need <= c.capacity
}
