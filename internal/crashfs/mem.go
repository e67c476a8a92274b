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

// memNode is one file's state: the volatile view (data) and how much of
// it the last File.Sync made durable. Files only grow by appending and
// shrink by Truncate, so the durable image is always the prefix
// data[:synced] and a sync never has to copy it.
type memNode struct {
	data   []byte
	synced int
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
		keep := min(n.synced+m.keepUnsynced, len(n.data))
		survived := append([]byte(nil), n.data[:keep]...)
		node := &memNode{data: survived, synced: len(survived)}
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
	if f.rd >= len(f.node.data) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.rd:])
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
		f.node.data = append(f.node.data, p[:n]...)
		return n, io.ErrShortWrite
	case m.crashAtWrite != 0 && m.writes == m.crashAtWrite:
		// The bytes reach the volatile image; whether any of them
		// survive is decided by keepUnsynced at Reboot.
		f.node.data = append(f.node.data, p...)
		m.crashed = true
		return 0, ErrCrashed
	}
	f.node.data = append(f.node.data, p...)
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
	f.node.synced = len(f.node.data)
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
	if int64(len(node.data)) > size {
		node.data = node.data[:size]
	}
	node.synced = min(node.synced, len(node.data))
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
