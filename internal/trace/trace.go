// Package trace provides the file-reference trace machinery behind the
// paper's evaluation: a record format, a deterministic synthetic workload
// generator with presets calibrated to the published trace segments
// (Figure 11), a replay engine with the think-threshold λ of §6.2.1, and
// the CML analysis used for the aging study (Figure 4) and compressibility
// survey (Figure 10).
//
// The original CMU traces are not distributable here, so the generator
// reproduces their published aggregate properties — reference and update
// counts, unoptimized CML volume, and compressibility (the fraction of CML
// bytes cancelled by log optimizations) — which are the only properties the
// analyses depend on. DESIGN.md records this substitution.
package trace

import (
	"fmt"
	"time"
)

// Op enumerates replayable operations. Coda uses open-close session
// semantics, so individual reads and writes do not appear; OpWrite is a
// close-after-write (a store), OpRead a close-after-read.
type Op uint8

// Operations.
const (
	OpRead Op = iota + 1
	OpWrite
	OpStat
	OpReadDir
	OpMkdir
	OpRemove
	OpRename
	OpRmdir
	OpSymlink
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpStat:
		return "stat"
	case OpReadDir:
		return "readdir"
	case OpMkdir:
		return "mkdir"
	case OpRemove:
		return "remove"
	case OpRename:
		return "rename"
	case OpRmdir:
		return "rmdir"
	case OpSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// IsUpdate reports whether the operation mutates the file system (the
// paper's "Updates" column); references include updates plus reads, stats,
// and lookups.
func (o Op) IsUpdate() bool {
	switch o {
	case OpWrite, OpMkdir, OpRemove, OpRename, OpRmdir, OpSymlink:
		return true
	}
	return false
}

// Record is one traced file reference.
type Record struct {
	// T is the offset from the start of the trace.
	T time.Duration
	// Op is the operation.
	Op Op
	// Path is the primary object, an absolute /coda path.
	Path string
	// Path2 is the rename destination.
	Path2 string
	// Size is the stored length for OpWrite.
	Size int
	// Program names the referencing program (Figure 5 context).
	Program string
}

// Trace is a sequence of records plus the initial file universe they
// reference.
type Trace struct {
	Name    string
	Records []Record
	// Manifest is the pre-existing file tree (path → size) that must be
	// seeded at the server before replay. Directories are implied.
	Manifest map[string]int
	// Volume is the volume name all paths live in.
	Volume string
}

// Duration returns the trace's span.
func (t *Trace) Duration() time.Duration {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].T
}

// Counts returns the reference and update totals (Figure 11 columns).
func (t *Trace) Counts() (refs, updates int) {
	for _, r := range t.Records {
		refs++
		if r.Op.IsUpdate() {
			updates++
		}
	}
	return refs, updates
}

// Slice returns the sub-trace covering [from, to), with times rebased to
// from.
func (t *Trace) Slice(from, to time.Duration) *Trace {
	out := &Trace{Name: t.Name, Manifest: t.Manifest, Volume: t.Volume}
	in := func(at time.Duration) bool { return at >= from && at < to }
	n := 0
	for i := range t.Records {
		if in(t.Records[i].T) {
			n++
		}
	}
	out.Records = make([]Record, 0, n)
	for _, r := range t.Records {
		if in(r.T) {
			r.T -= from
			out.Records = append(out.Records, r)
		}
	}
	return out
}
