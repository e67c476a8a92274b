// Package codafs defines the file-system object model shared by the Coda
// server and the Venus client cache: file identifiers, object status blocks,
// volumes, and path utilities.
//
// Terminology follows the paper: an "object" is a file, directory, or
// symbolic link; objects are grouped into volumes, each forming a partial
// subtree of the /coda name space; servers maintain version stamps on both
// individual objects and whole volumes (the two granularities of cache
// coherence from §4.2.1).
package codafs

import (
	"cmp"
	"fmt"
	"maps"
	"path"
	"sort"
	"strings"
	"time"
)

// VolumeID names a volume.
type VolumeID uint32

// FID uniquely identifies an object within the file system.
type FID struct {
	Volume VolumeID
	Vnode  uint64
	Unique uint64
}

// IsZero reports whether the FID is the null identifier.
func (f FID) IsZero() bool { return f == FID{} }

// Compare orders FIDs by volume, vnode and uniquifier, as cmp.Compare
// orders numbers.
func (f FID) Compare(g FID) int {
	return cmp.Or(cmp.Compare(f.Volume, g.Volume), cmp.Compare(f.Vnode, g.Vnode), cmp.Compare(f.Unique, g.Unique))
}

// String renders the FID in the traditional dotted triple form.
func (f FID) String() string {
	return fmt.Sprintf("%d.%d.%d", f.Volume, f.Vnode, f.Unique)
}

// ObjType distinguishes the three kinds of objects.
type ObjType uint8

// Object kinds.
const (
	File ObjType = iota + 1
	Directory
	Symlink
)

func (t ObjType) String() string {
	switch t {
	case File:
		return "file"
	case Directory:
		return "directory"
	case Symlink:
		return "symlink"
	default:
		return fmt.Sprintf("objtype(%d)", uint8(t))
	}
}

// Status is an object's metadata block. The paper notes status information
// is about 100 bytes, cheap to fetch even at modem speed (§4.4.1);
// StatusWireSize preserves that costing in the simulator.
type Status struct {
	FID     FID
	Type    ObjType
	Length  int64
	Version uint64 // object version stamp; bumped on every server update
	ModTime time.Time
	Mode    uint32
	Owner   string
	Links   uint32 // hard-link count (files and symlinks)
}

// StatusWireSize is the nominal on-the-wire size of a Status, in bytes.
const StatusWireSize = 100

// VolumeInfo is the client-visible description of a volume.
type VolumeInfo struct {
	ID    VolumeID
	Name  string
	Stamp uint64 // volume version stamp; bumped on every update to any object in the volume
}

// Object is the full representation of a file-system object: status plus
// the type-specific payload. The server store and the Venus cache both use
// it.
//
// File contents are immutable once published: a Data slice — here, in a
// cml.Record, in a cache entry — is never written through, only replaced
// wholesale. Contents are copied at the trust edges, where they arrive from
// or leave to someone who may write to them (a caller's buffer, a received
// frame, a ReadFile result); all between share one slice (DESIGN.md §4.11).
type Object struct {
	Status   Status
	Data     []byte         // file contents (Type == File)
	Children map[string]FID // directory entries (Type == Directory)
	Target   string         // symlink target (Type == Symlink)
}

// Clone returns an independent copy: its own entries, the same contents.
func (o *Object) Clone() *Object {
	c := *o
	c.Children = maps.Clone(o.Children)
	return &c
}

// SetEntry binds name to fid in the directory's entries and DropEntry
// unbinds it. They are the only writers of a Children map outside the
// wire decoder, so a directory's Length is kept by one rule: 32 bytes an
// entry, which lets Venus cost a fetch from status alone (§4.4.1).
func (o *Object) SetEntry(name string, fid FID) {
	o.Children[name] = fid
	o.Status.Length = int64(len(o.Children)) * 32
}

// DropEntry removes name from the directory's entries (see SetEntry).
func (o *Object) DropEntry(name string) {
	delete(o.Children, name)
	o.Status.Length = int64(len(o.Children)) * 32
}

// ChildNames returns the directory's entry names in sorted order.
func (o *Object) ChildNames() []string {
	names := make([]string, 0, len(o.Children))
	for n := range o.Children {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MountPrefix is the root under which all volumes appear.
const MountPrefix = "/coda"

// SplitPath cleans an absolute /coda path and returns the volume name and
// the per-volume component list. The volume root itself yields an empty
// component list.
func SplitPath(p string) (volume string, components []string, err error) {
	p = path.Clean(p)
	rest, ok := strings.CutPrefix(p, MountPrefix+"/")
	if !ok {
		return "", nil, fmt.Errorf("codafs: path %q names no volume under %s", p, MountPrefix)
	}
	parts := strings.Split(rest, "/")
	return parts[0], parts[1:], nil
}

// JoinPath assembles an absolute /coda path from a volume name and
// components.
func JoinPath(volume string, components ...string) string {
	return path.Join(append([]string{MountPrefix, volume}, components...)...)
}

// ValidName reports whether name is usable as a directory entry.
func ValidName(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.Contains(name, "/")
}
