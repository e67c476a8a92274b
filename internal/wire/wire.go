// Package wire defines the typed messages of the Coda client↔server
// protocol and their encoding. Every operation Venus performs against a
// server — attribute fetches, data fetches, connected-mode mutations, batch
// volume validation, reintegration, fragment shipping — and every call a
// server makes back to a client (callback breaks) is a struct here, carried
// as the body of an rpc2 call in the fixed-layout encoding of codec.go: a
// type-tag byte and the fields in declaration order, a few bytes of
// framing per message where the paper's packets have a fixed header.
//
// Message sizes are accounted by the network emulator from the actual
// encoded bytes, so protocol overheads (e.g. the ~100-byte status blocks of
// §4.4.1, the single-RPC batched volume validation of §4.2.1) are costed
// realistically in the experiments.
package wire

import (
	"fmt"
	"time"

	"repro/internal/bufpool"
	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/delta"
	"repro/internal/rpc2"
)

// ---- Client → server requests ----

// GetVolume resolves a volume by name.
type GetVolume struct{ Name string }

// GetVolumeRep returns the volume description and its root directory
// status.
type GetVolumeRep struct {
	Info codafs.VolumeInfo
	Root codafs.Status
}

// GetAttr fetches an object's status. If WantCallback is set the server
// establishes an object callback for the calling client.
type GetAttr struct {
	FID          codafs.FID
	WantCallback bool
}

// GetAttrRep returns the status.
type GetAttrRep struct{ Status codafs.Status }

// Fetch retrieves a whole object (status plus contents/entries/target).
type Fetch struct {
	FID          codafs.FID
	WantCallback bool
}

// FetchRep returns the object.
type FetchRep struct{ Object codafs.Object }

// StoreOp writes file contents in connected mode (write-through).
type StoreOp struct {
	FID         codafs.FID
	Data        []byte
	PrevVersion uint64
}

// SetAttrOp updates mode/modtime in connected mode.
type SetAttrOp struct {
	FID         codafs.FID
	Mode        uint32
	ModTime     time.Time
	PrevVersion uint64
}

// MakeObject creates a file, directory, or symlink in connected mode. The
// client chooses the FID from its preallocated space.
type MakeObject struct {
	Parent codafs.FID
	Name   string
	FID    codafs.FID
	Type   codafs.ObjType
	Target string
	Mode   uint32
	Owner  string
}

// RemoveOp unlinks a file/symlink (or, with Rmdir set, an empty directory).
type RemoveOp struct {
	Parent codafs.FID
	Name   string
	FID    codafs.FID
	Rmdir  bool
}

// RenameOp moves an object between names/directories.
type RenameOp struct {
	Parent    codafs.FID
	Name      string
	NewParent codafs.FID
	NewName   string
	FID       codafs.FID
}

// LinkOp adds a hard link to an existing file.
type LinkOp struct {
	Parent codafs.FID
	Name   string
	FID    codafs.FID
}

// MutateRep is the reply to every connected-mode mutation.
type MutateRep struct {
	Status       codafs.Status // the object's (or for removes, parent's) new status
	ParentStatus codafs.Status
	VolStamp     uint64
}

// A mutation is one cml.Record whichever route it takes to the server
// (§4.3): logged and shipped inside a Reintegrate, or sent at once as the
// connected-mode request of its kind. MutationOf and RecordOf are that
// correspondence, side by side; nothing else converts between the two.
// The requests are narrower than the record — no StoreOp or MakeObject
// carries a time, no RemoveOp a version, only MakeObject an owner — so
// RecordOf(MutationOf(r)) is r on the fields connected mode carries.

// MutationOf returns the connected-mode request that carries rec, or nil
// for a kind that has none.
func MutationOf(rec *cml.Record) any {
	switch rec.Kind {
	case cml.Store:
		return StoreOp{FID: rec.FID, Data: rec.Data, PrevVersion: rec.PrevVersion}
	case cml.SetAttr:
		return SetAttrOp{FID: rec.FID, Mode: rec.Mode, ModTime: rec.ModTime, PrevVersion: rec.PrevVersion}
	case cml.Create, cml.Mkdir, cml.MakeSymlink:
		typ := codafs.File
		switch rec.Kind {
		case cml.Mkdir:
			typ = codafs.Directory
		case cml.MakeSymlink:
			typ = codafs.Symlink
		}
		return MakeObject{Parent: rec.Parent, Name: rec.Name, FID: rec.FID, Type: typ,
			Target: rec.Target, Mode: rec.Mode, Owner: rec.Owner}
	case cml.Remove, cml.Rmdir:
		return RemoveOp{Parent: rec.Parent, Name: rec.Name, FID: rec.FID, Rmdir: rec.Kind == cml.Rmdir}
	case cml.Rename:
		return RenameOp{Parent: rec.Parent, Name: rec.Name, NewParent: rec.NewParent, NewName: rec.NewName, FID: rec.FID}
	case cml.Link:
		return LinkOp{Parent: rec.Parent, Name: rec.Name, FID: rec.FID}
	}
	return nil
}

// RecordOf returns the record a connected-mode request carries, and the
// object whose new status answers it as MutateRep.Status: the parent for
// a remove (the object is gone), the object itself otherwise. ok is false
// for any other message.
func RecordOf(req any) (rec cml.Record, repFID codafs.FID, ok bool) {
	switch m := req.(type) {
	case StoreOp:
		rec = cml.Record{Kind: cml.Store, FID: m.FID, Data: m.Data, Length: int64(len(m.Data)), PrevVersion: m.PrevVersion}
	case SetAttrOp:
		rec = cml.Record{Kind: cml.SetAttr, FID: m.FID, Mode: m.Mode, ModTime: m.ModTime, PrevVersion: m.PrevVersion}
	case MakeObject:
		rec = cml.Record{Kind: cml.Create, FID: m.FID, Parent: m.Parent, Name: m.Name,
			Target: m.Target, Mode: m.Mode, Owner: m.Owner}
		switch m.Type {
		case codafs.Directory:
			rec.Kind = cml.Mkdir
		case codafs.Symlink:
			rec.Kind = cml.MakeSymlink
		}
	case RemoveOp:
		rec = cml.Record{Kind: cml.Remove, FID: m.FID, Parent: m.Parent, Name: m.Name}
		if m.Rmdir {
			rec.Kind = cml.Rmdir
		}
		return rec, m.Parent, true
	case RenameOp:
		rec = cml.Record{Kind: cml.Rename, FID: m.FID, Parent: m.Parent, Name: m.Name, NewParent: m.NewParent, NewName: m.NewName}
	case LinkOp:
		rec = cml.Record{Kind: cml.Link, FID: m.FID, Parent: m.Parent, Name: m.Name}
	default:
		return rec, repFID, false
	}
	return rec, rec.FID, true
}

// VolStampPair names one volume and the stamp the client holds for it.
type VolStampPair struct {
	ID    codafs.VolumeID
	Stamp uint64
}

// ValidateVolumes presents cached volume stamps for batch validation
// (§4.2.1: multiple volumes validated in a single RPC). The server grants a
// volume callback for each volume it reports valid.
type ValidateVolumes struct{ Volumes []VolStampPair }

// ValidateVolumesRep reports per-volume validity and current stamps.
type ValidateVolumesRep struct {
	Valid  []bool
	Stamps []uint64
}

// FIDVersion names one object and the version the client holds for it.
type FIDVersion struct {
	FID     codafs.FID
	Version uint64
}

// ValidateObjects validates a batch of individual cached objects — the
// original, object-granularity coherence scheme that Figure 8 compares
// volume callbacks against. The server grants object callbacks for the
// objects it reports valid.
type ValidateObjects struct{ Objects []FIDVersion }

// ValidateObjectsRep reports per-object validity; Statuses carries the
// current status for invalid (changed) objects so the client can refresh.
type ValidateObjectsRep struct {
	Valid    []bool
	Statuses []codafs.Status // indexed like Objects; zero FID if removed
}

// GetVolumeStamp obtains a volume's current stamp and establishes a volume
// callback (done at the end of a hoard walk, §4.2.2).
type GetVolumeStamp struct{ Volume codafs.VolumeID }

// GetVolumeStampRep returns the stamp.
type GetVolumeStampRep struct{ Stamp uint64 }

// Reintegrate replays a chunk of CML records atomically (§4.3.3). Records
// whose Data was shipped separately as fragments reference their transfer
// in Fragments (record index → fragment transfer ID).
type Reintegrate struct {
	Volume    codafs.VolumeID
	Records   []cml.Record
	Fragments map[int]uint64
	// Deltas carries rsync-style differences for store records whose
	// previous version the server holds (record index → delta); the
	// record's Data is then omitted. See internal/delta.
	Deltas map[int]delta.Delta
}

// RecordResult describes the fate of one reintegrated record.
type RecordResult struct {
	OK       bool
	Conflict bool
	// DeltaFailed: the store's delta did not apply against the server's
	// copy (base mismatch); the client should retry with full contents.
	DeltaFailed bool
	Msg         string
}

// ReintegrateRep reports the outcome. Applied is false if any record
// conflicted or failed, in which case no server state changed (atomicity).
type ReintegrateRep struct {
	Applied  bool
	Results  []RecordResult
	Statuses []codafs.Status // new statuses of every object touched (on success)
	VolStamp uint64
}

// PutFragment ships one piece of a large file ahead of reintegration
// (§4.3.5). The server holds fragments until the Reintegrate that
// references them; transfers are resumable after the last received byte.
// Decoded, Data is lent: it aliases the request body, so it is valid only
// until the handler returns.
type PutFragment struct {
	Transfer uint64
	Offset   int64
	Total    int64
	Data     []byte
}

// PutFragmentRep acknowledges contiguous receipt through Received bytes.
type PutFragmentRep struct{ Received int64 }

// ---- Server ↔ server replication ----

// LogEntry is one replicated WAL batch: the records one client commit
// appended to a volume's log, identified by its log sequence number and
// chained by a cumulative fingerprint over the exact journal payload
// bytes. Identical entry streams produce identical chains on every
// replica, so a chain match at LSN n proves byte-identical logs through n.
type LogEntry struct {
	LSN    uint64
	Chain  uint32 // cumulative CRC32C through this entry
	Client string // originating client address (dedup identity)
	Recs   []cml.Record
}

// ShipLog pushes one freshly committed log entry to a replica peer
// (primary-push half of log anti-entropy). PrevChain is the shipper's
// chain before the entry; the receiver applies only if it matches its
// own, which guarantees replicas never interleave divergent histories.
type ShipLog struct {
	Volume    codafs.VolumeID
	PrevChain uint32
	Entry     LogEntry
}

// ShipLogRep acknowledges a shipped entry. LSN is the receiver's log
// position after the call; NeedCatchUp reports a gap or chain mismatch —
// the receiver will repair itself by pulling the suffix via FetchLog.
type ShipLogRep struct {
	LSN         uint64
	NeedCatchUp bool
}

// FetchLog pulls the log suffix after AfterLSN from a peer (pull half of
// log anti-entropy, used by a restarted replica to catch up). Chain is
// the caller's cumulative fingerprint at AfterLSN; the peer refuses the
// fetch if it disagrees, which turns silent divergence into a loud error.
type FetchLog struct {
	Volume   codafs.VolumeID
	AfterLSN uint64
	Chain    uint32
}

// FetchLogRep returns up to a batch of entries following AfterLSN. LSN is
// the peer's current log position: the caller keeps fetching until it
// reaches it.
type FetchLogRep struct {
	Entries []LogEntry
	LSN     uint64
}

// ---- Server → client ----

// CallbackBreak invalidates object and/or volume callbacks at a client.
type CallbackBreak struct {
	FIDs    []codafs.FID
	Volumes []codafs.VolumeID
}

// CallbackBreakRep acknowledges the break.
type CallbackBreakRep struct{}

// Call performs a typed RPC: it encodes req (a []byte is one already encoded,
// for several peers, and stays the caller's), calls dst through n, and
// decodes the reply as Rep. The request and reply frames are freed once
// read: Decode copies every byte the reply keeps.
func Call[Rep any](n *rpc2.Node, dst string, req any, opts rpc2.CallOpts) (Rep, error) {
	var zero Rep
	body, framed := req.([]byte)
	if !framed {
		var err error
		if body, err = EncodeFrame(req); err != nil {
			return zero, err
		}
		defer bufpool.Free(body)
	}
	repBytes, err := n.Call(dst, body, opts)
	if err != nil {
		return zero, err
	}
	v, err := Decode(repBytes)
	bufpool.Free(repBytes)
	if err != nil {
		return zero, err
	}
	rep, ok := v.(Rep)
	if !ok {
		return zero, fmt.Errorf("wire: reply to %T is %T, want %T", req, v, zero)
	}
	return rep, nil
}
