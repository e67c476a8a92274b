package crashfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
)

// pageSize is the unit a memNode's bytes are held in.
const pageSize = 64 << 10

// memNode is one file's state: the volatile view (size bytes, in pages)
// and how much of it the last File.Sync made durable. Files only grow by
// appending and shrink by Truncate, so the durable image is always the
// prefix [0, synced) and a sync never has to copy it. Nor does an append:
// every page but the last is full and never moves again, so a byte
// written is copied once however long the file gets (a flat slice grown
// by append re-copied a 1 MiB WAL segment about five times). Only the
// first page starts small and grows, so a tiny meta file costs what it
// holds.
type memNode struct {
	pages  [][]byte
	size   int
	synced int
}

// write appends p to the volatile view.
func (n *memNode) write(p []byte) {
	n.size += len(p)
	for len(p) > 0 {
		i := len(n.pages) - 1
		if i < 0 || len(n.pages[i]) == pageSize {
			n.pages = append(n.pages, nil)
			i++
		}
		pg := n.pages[i]
		if len(pg) == cap(pg) {
			// A later page is allocated whole; the first in steps of 4x.
			c := pageSize
			if i == 0 {
				c = min(pageSize, max(4*cap(pg), len(pg)+len(p), 512))
			}
			pg = append(make([]byte, 0, c), pg...)
		}
		k := copy(pg[len(pg):cap(pg)], p)
		n.pages[i] = pg[:len(pg)+k]
		p = p[k:]
	}
}

// readAt copies into p from offset off, like a flat slice would:
// everything that is there, up to len(p).
func (n *memNode) readAt(p []byte, off int) (done int) {
	for done < len(p) && off < n.size {
		k := copy(p[done:], n.pages[off/pageSize][off%pageSize:])
		done, off = done+k, off+k
	}
	return done
}

// truncate cuts the volatile view to size bytes, if it is longer.
func (n *memNode) truncate(size int) {
	if size >= n.size {
		return
	}
	keep := (size + pageSize - 1) / pageSize
	clear(n.pages[keep:])
	n.pages = n.pages[:keep]
	if rem := size % pageSize; rem > 0 {
		n.pages[keep-1] = n.pages[keep-1][:rem]
	}
	n.size = size
}

// Mem is an in-memory FS with scripted fault injection. It models the
// POSIX durability contract exactly: data survives a crash only up to
// the last File.Sync, and a name (create/rename/remove) survives only
// if its parent directory was SyncDir'd afterwards. Directory creation
// itself (MkdirAll) is treated as immediately durable — the durability
// layer creates its directories once, at attach time.
//
// Faults are armed by the test and fire deterministically on operation
// counts; Mem never consults a clock or a random source.
type Mem struct {
	mu   sync.Mutex
	cur  map[string]*memNode // volatile namespace
	dur  map[string]*memNode // durable namespace
	dirs map[string]bool

	crashed bool
	writes  int // File.Write calls observed so far
	syncs   int // File.Sync calls observed so far

	crashAtWrite int // crash when the crashAtWrite-th write arrives (1-based)
	keepUnsynced int // un-synced tail bytes per file that survive the cut

	failWriteAt   int   // the failWriteAt-th write fails, applying nothing
	injectedErr   error // error returned by failWriteAt / failSyncAt
	shortWriteAt  int   // the shortWriteAt-th write applies only shortWriteLen bytes
	shortWriteLen int
	failSyncAt    int // the failSyncAt-th sync fails (data stays volatile)
	failRenames   int // the next failRenames renames fail
}

// NewMem returns an empty in-memory filesystem with no faults armed.
func NewMem() *Mem {
	return &Mem{
		cur:  make(map[string]*memNode),
		dur:  make(map[string]*memNode),
		dirs: make(map[string]bool),
	}
}

// ---- Fault scripting ----

// ArmCrash schedules a power cut at the n-th future File.Write (1-based
// from now): that write's bytes are applied to the volatile image, the
// write returns ErrCrashed, and every later operation fails until
// Reboot. keepUnsynced bytes of each file's un-synced tail survive the
// cut (real devices persist partial sectors), which is what produces
// torn frames for recovery to truncate.
func (m *Mem) ArmCrash(n, keepUnsynced int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashAtWrite = m.writes + n
	m.keepUnsynced = keepUnsynced
}

// FailWrite makes the n-th future write fail with err without applying
// any bytes.
func (m *Mem) FailWrite(n int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failWriteAt = m.writes + n
	m.injectedErr = err
}

// ShortWrite makes the n-th future write apply only keep bytes and
// return io.ErrShortWrite.
func (m *Mem) ShortWrite(n, keep int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shortWriteAt = m.writes + n
	m.shortWriteLen = keep
}

// FailSync makes the n-th future File.Sync fail with err; the file's
// data stays volatile.
func (m *Mem) FailSync(n int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failSyncAt = m.syncs + n
	m.injectedErr = err
}

// FailRenames makes the next n renames fail.
func (m *Mem) FailRenames(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failRenames = n
}

// Crash simulates an immediate power cut.
func (m *Mem) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = true
}

// Reboot applies the crash semantics — only durable names and durable
// contents (plus the armed un-synced allowance) survive — and makes the
// filesystem usable again.
func (m *Mem) Reboot() {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := make(map[string]*memNode, len(m.dur))
	for name, n := range m.dur {
		keep := min(n.synced+m.keepUnsynced, n.size)
		node := &memNode{}
		for _, pg := range n.pages {
			node.write(pg[:min(len(pg), keep-node.size)])
		}
		node.synced = node.size
		cur[name] = node
		m.dur[name] = node
	}
	m.cur = cur
	m.crashed = false
	m.crashAtWrite = 0
	m.keepUnsynced = 0
}

// Writes returns the number of File.Write calls observed so far; the
// crash matrix sweeps its crash point across this count.
func (m *Mem) Writes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writes
}

// ---- FS implementation ----

type memFile struct {
	fs   *Mem
	name string
	node *memNode
	rd   int  // read offset
	ro   bool // opened read-only
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	if f.rd >= f.node.size {
		return 0, io.EOF
	}
	n := f.node.readAt(p, f.rd)
	f.rd += n
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	m := f.fs
	if m.crashed {
		return 0, ErrCrashed
	}
	if f.ro {
		return 0, fmt.Errorf("crashfs: %s opened read-only", f.name)
	}
	m.writes++
	switch {
	case m.failWriteAt != 0 && m.writes == m.failWriteAt:
		m.failWriteAt = 0
		return 0, m.injectedErr
	case m.shortWriteAt != 0 && m.writes == m.shortWriteAt:
		m.shortWriteAt = 0
		n := min(m.shortWriteLen, len(p))
		f.node.write(p[:n])
		return n, io.ErrShortWrite
	case m.crashAtWrite != 0 && m.writes == m.crashAtWrite:
		// The bytes reach the volatile image; whether any of them
		// survive is decided by keepUnsynced at Reboot.
		f.node.write(p)
		m.crashed = true
		return 0, ErrCrashed
	}
	f.node.write(p)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	m := f.fs
	if m.crashed {
		return ErrCrashed
	}
	if f.ro {
		return nil
	}
	m.syncs++
	if m.failSyncAt != 0 && m.syncs == m.failSyncAt {
		m.failSyncAt = 0
		return m.injectedErr
	}
	f.node.synced = f.node.size
	return nil
}

func (f *memFile) Close() error { return nil }

// Create implements FS.
func (m *Mem) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	node := &memNode{}
	m.cur[name] = node
	return &memFile{fs: m, name: name, node: node}, nil
}

// Open implements FS.
func (m *Mem) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	node, ok := m.cur[name]
	if !ok {
		return nil, fmt.Errorf("crashfs: open %s: %w", name, errNotExist)
	}
	return &memFile{fs: m, name: name, node: node, ro: true}, nil
}

// Rename implements FS.
func (m *Mem) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if m.failRenames > 0 {
		m.failRenames--
		return fmt.Errorf("crashfs: rename %s: injected fault", oldname)
	}
	node, ok := m.cur[oldname]
	if !ok {
		return fmt.Errorf("crashfs: rename %s: %w", oldname, errNotExist)
	}
	delete(m.cur, oldname)
	m.cur[newname] = node
	return nil
}

// Remove implements FS.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if _, ok := m.cur[name]; !ok {
		return fmt.Errorf("crashfs: remove %s: %w", name, errNotExist)
	}
	delete(m.cur, name)
	return nil
}

// MkdirAll implements FS.
func (m *Mem) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	for d := dir; d != "." && d != "/" && d != ""; d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

// ReadDir implements FS.
func (m *Mem) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	var names []string
	for name := range m.cur {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Truncate implements FS. Recovery uses it to drop a torn tail, so the
// cut applies to the durable image as well.
func (m *Mem) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	node, ok := m.cur[name]
	if !ok {
		return fmt.Errorf("crashfs: truncate %s: %w", name, errNotExist)
	}
	node.truncate(int(size))
	node.synced = min(node.synced, node.size)
	return nil
}

// SyncDir implements FS: the volatile entry set under dir becomes the
// durable one.
func (m *Mem) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	for name, node := range m.cur {
		if filepath.Dir(name) == dir {
			m.dur[name] = node
		}
	}
	for name := range m.dur {
		if filepath.Dir(name) == dir {
			if _, live := m.cur[name]; !live {
				delete(m.dur, name)
			}
		}
	}
	return nil
}

// errNotExist aliases the standard sentinel so errors.Is treats Mem and
// OS misses alike.
var errNotExist = fs.ErrNotExist

// IsNotExist reports whether err marks a missing file on either
// implementation.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
