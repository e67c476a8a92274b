// Package crashfs abstracts the narrow filesystem surface the durability
// layer needs (internal/wal and the Save/Load state paths) behind an
// interface with two implementations:
//
//   - OS: the real filesystem, with the fsync discipline spelled out —
//     File.Sync for contents, SyncDir for the directory entries that
//     link them (a rename is not durable until its parent directory is
//     synced).
//   - Mem: an in-memory filesystem with scripted fault injection — fail
//     the Nth write, short writes, one-shot sync/rename errors, and a
//     simulated power cut that drops (or partially keeps) un-synced
//     data — so recovery code is tested against realistic torn states
//     rather than happy paths.
//
// The durability model both implementations share is the POSIX one:
// written data is volatile until the file is synced, and a created,
// renamed, or removed name is volatile until its parent directory is
// synced. Mem enforces the model literally: whatever was not synced is
// gone (or torn) after Crash.
package crashfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ErrCrashed is returned by every Mem operation after a simulated power
// cut, until Reboot.
var ErrCrashed = errors.New("crashfs: filesystem crashed")

// File is the per-file surface: sequential reads OR appends plus Sync.
type File interface {
	io.Reader
	io.Writer
	// Sync makes the file's current contents durable.
	Sync() error
	// Close releases the handle. Closing does not imply Sync.
	Close() error
}

// FS is the filesystem surface. Paths use the host separator (callers
// join with path/filepath).
type FS interface {
	// Create truncate-creates name for writing. The new (empty) name is
	// volatile until SyncDir on its parent.
	Create(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (File, error)
	// Rename atomically replaces newname with oldname. Volatile until
	// SyncDir on the parent.
	Rename(oldname, newname string) error
	// Remove unlinks name. Volatile until SyncDir on the parent.
	Remove(name string) error
	// MkdirAll creates dir and parents as needed.
	MkdirAll(dir string) error
	// ReadDir lists the file names (not subdirectories) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Truncate cuts name to size bytes (used to drop a torn WAL tail).
	// The truncation is made durable by the implementation (OS relies
	// on the caller's following File/SyncDir sync; Mem applies it to
	// the durable image directly, as recovery runs before new faults
	// are armed).
	Truncate(name string, size int64) error
	// SyncDir makes dir's entries (creations, renames, removals)
	// durable.
	SyncDir(dir string) error
}

// ---- OS: the real filesystem ----

// OS implements FS over package os.
type OS struct{}

type osFile struct{ f *os.File }

func (o osFile) Read(p []byte) (int, error)  { return o.f.Read(p) }
func (o osFile) Write(p []byte) (int, error) { return o.f.Write(p) }
func (o osFile) Sync() error                 { return o.f.Sync() }
func (o osFile) Close() error                { return o.f.Close() }

// Create implements FS.
func (OS) Create(name string) (File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open implements FS.
func (OS) Open(name string) (File, error) {
	f, err := os.Open(filepath.Clean(name))
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Rename implements FS.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Truncate implements FS.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// SyncDir implements FS. Directory fsync is what makes renames and
// creations durable on a real filesystem — the half a bare
// write-then-rename forgets.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// WriteFileAtomic replaces path with data crash-atomically: the bytes go
// to a temporary file that is fsynced, renamed over path, and the parent
// directory is fsynced so the rename itself is durable. A power cut at
// any point leaves either the previous file or the new one, never a torn
// mixture. On failure the temporary file is removed.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}
