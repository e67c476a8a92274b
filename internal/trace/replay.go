package trace

import (
	"errors"
	"sort"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/venus"
)

// CMLAnalysis summarizes one pass of a trace through the CML simulator —
// the paper's "Venus simulator" methodology (§4.3.4): the trace's updates
// are logged, records older than the aging window are (conceptually)
// reintegrated away and thereby lost to optimization, and the savings are
// measured.
type CMLAnalysis struct {
	// AppendedBytes is the unoptimized CML volume: every update record's
	// size, including store data, before any cancellation.
	AppendedBytes int64
	// SavedBytes is the volume cancelled by log optimizations.
	SavedBytes int64
	// DrainedBytes is the volume that aged past the window and was
	// reintegrated (thus protected from cancellation).
	DrainedBytes int64
	// FinalBytes is what remains in the log at the end of the trace.
	FinalBytes int64
	// Updates is the number of update records offered.
	Updates int
}

// Compressibility is SavedBytes/AppendedBytes — the §6.2.1 metric behind
// Figures 10 and 11 (there computed with an infinite window).
func (a CMLAnalysis) Compressibility() float64 {
	if a.AppendedBytes == 0 {
		return 0
	}
	return float64(a.SavedBytes) / float64(a.AppendedBytes)
}

// NoAging disables draining in AnalyzeCML: every record stays optimizable
// for the whole trace.
const NoAging = time.Duration(-1)

// AnalyzeCML feeds the trace's updates through a real CML with the given
// aging window. Records older than the window are drained (reintegrated)
// before each append, exactly as trickle reintegration would, so only
// records of age ≤ aging are subject to optimization (Figure 4's model).
func AnalyzeCML(tr *Trace, aging time.Duration) CMLAnalysis {
	log := cml.NewLog()
	base := simtime.Epoch1995
	var out CMLAnalysis

	fids := make(map[string]codafs.FID)
	var nextVnode uint64 = 100
	dirFID := codafs.FID{Volume: 1, Vnode: 1, Unique: 1}
	fidFor := func(path string) codafs.FID {
		if f, ok := fids[path]; ok {
			return f
		}
		nextVnode++
		f := codafs.FID{Volume: 1, Vnode: nextVnode, Unique: nextVnode}
		fids[path] = f
		return f
	}
	exists := make(map[string]bool)
	for p := range tr.Manifest {
		exists[p] = true
	}

	appendRec := func(r cml.Record, now time.Time) {
		out.AppendedBytes += r.Size()
		out.Updates++
		log.Append(r, now)
	}

	for _, r := range tr.Records {
		now := base.Add(r.T)
		if aging >= 0 {
			for {
				chunk := log.BeginReintegration(aging, 1<<62, now)
				if chunk == nil {
					break
				}
				for _, c := range chunk {
					out.DrainedBytes += c.Size()
				}
				log.CommitReintegration()
			}
		}
		switch r.Op {
		case OpWrite:
			fid := fidFor(r.Path)
			if !exists[r.Path] {
				exists[r.Path] = true
				appendRec(cml.Record{Kind: cml.Create, FID: fid, Parent: dirFID, Name: r.Path}, now)
			}
			appendRec(cml.Record{
				Kind: cml.Store, FID: fid, Parent: dirFID, Name: r.Path,
				Data: make([]byte, r.Size), Length: int64(r.Size),
			}, now)
		case OpRemove:
			if exists[r.Path] {
				exists[r.Path] = false
				appendRec(cml.Record{Kind: cml.Remove, FID: fidFor(r.Path), Parent: dirFID, Name: r.Path}, now)
				delete(fids, r.Path)
			}
		case OpMkdir:
			appendRec(cml.Record{Kind: cml.Mkdir, FID: fidFor(r.Path), Parent: dirFID, Name: r.Path}, now)
		case OpRmdir:
			appendRec(cml.Record{Kind: cml.Rmdir, FID: fidFor(r.Path), Parent: dirFID, Name: r.Path}, now)
		case OpSymlink:
			appendRec(cml.Record{Kind: cml.MakeSymlink, FID: fidFor(r.Path), Parent: dirFID, Name: r.Path, Target: r.Path2}, now)
		case OpRename:
			appendRec(cml.Record{
				Kind: cml.Rename, FID: fidFor(r.Path), Parent: dirFID, Name: r.Path,
				NewParent: dirFID, NewName: r.Path2,
			}, now)
		}
	}
	out.SavedBytes = log.SavedBytes()
	out.FinalBytes = log.Bytes()
	return out
}

// SeedServer creates the trace's volume and pre-existing files on srv.
// Files are created in sorted path order so FID assignment is
// deterministic: seeding the same trace onto every member of a
// replicated group leaves the members byte-identical.
func SeedServer(srv *server.Server, tr *Trace) error {
	if _, err := srv.CreateVolume(tr.Volume); err != nil {
		return err
	}
	paths := make([]string, 0, len(tr.Manifest))
	for path := range tr.Manifest {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		size := tr.Manifest[path]
		_, comps, err := codafs.SplitPath(path)
		if err != nil {
			return err
		}
		rel := ""
		for i, c := range comps {
			if i > 0 {
				rel += "/"
			}
			rel += c
		}
		if _, err := srv.WriteFile(tr.Volume, rel, make([]byte, size)); err != nil {
			return err
		}
	}
	return nil
}

// ReplayStats reports the outcome of a live replay.
type ReplayStats struct {
	Ops         int
	Updates     int
	Errors      int
	CacheMisses int
	Elapsed     time.Duration
}

// ReplayOpts tunes a live replay.
type ReplayOpts struct {
	// Lambda is the think threshold λ of §6.2.1: trace delays shorter
	// than it are elided, the rest preserved on the clock.
	Lambda time.Duration
	// OpCost models the client's local cost per operation (system-call
	// handling, cache walk). The emulator charges only network time, so
	// without this, replays on a cache-warm client would take zero
	// virtual time regardless of think times.
	OpCost time.Duration
}

// Replay drives the trace through a live Venus (§6.2.1): operations become
// Venus calls. Replay continues past per-op errors (misses are expected
// while weakly connected) and returns counts.
func Replay(clock simtime.Clock, v *venus.Venus, tr *Trace, opts ReplayOpts) ReplayStats {
	var st ReplayStats
	start := clock.Now()
	var prev time.Duration
	// One buffer receives every read and one run of zeros feeds every
	// write (Venus copies what it keeps), so the replayer itself adds no
	// garbage to the path it is timing.
	var readBuf, zeros []byte
	for i := range tr.Records {
		r := &tr.Records[i]
		gap := r.T - prev
		prev = r.T
		if gap >= opts.Lambda {
			clock.Sleep(gap)
		}
		if opts.OpCost > 0 {
			clock.Sleep(opts.OpCost)
		}
		st.Ops++
		var err error
		switch r.Op {
		case OpRead:
			readBuf, err = v.AppendFile(readBuf[:0], r.Path)
		case OpWrite:
			if len(zeros) < r.Size {
				zeros = make([]byte, r.Size)
			}
			err = v.WriteFile(r.Path, zeros[:r.Size])
			st.Updates++
		case OpStat:
			_, err = v.Stat(r.Path)
		case OpReadDir:
			_, err = v.ReadDir(r.Path)
		case OpMkdir:
			err = v.Mkdir(r.Path)
			st.Updates++
		case OpRemove:
			err = v.Remove(r.Path)
			st.Updates++
		case OpRmdir:
			err = v.Rmdir(r.Path)
			st.Updates++
		case OpRename:
			err = v.Rename(r.Path, r.Path2)
			st.Updates++
		case OpSymlink:
			err = v.Symlink(r.Path2, r.Path)
			st.Updates++
		}
		if err != nil {
			if errors.Is(err, venus.ErrCacheMiss) {
				st.CacheMisses++
			} else {
				st.Errors++
			}
		}
	}
	st.Elapsed = clock.Now().Sub(start)
	return st
}
