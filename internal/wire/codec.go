package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/delta"
)

// The codec: one leading type-tag byte, then the message's fields in
// declaration order with no names, no type descriptors and no padding.
// Integers and lengths are minimal uvarints, chain fingerprints and
// hashes are fixed-width, and cml.Record and codafs.Status — the two
// structs that are mostly zero in any one message — lead with a presence
// mask and carry only their non-zero fields. DESIGN.md "Wire and journal
// record format" is the field-by-field reference.
//
// Every value has exactly one encoding: Decode rejects non-minimal
// varints, booleans other than 0/1, mask bits set for zero fields and
// unsorted map keys, so an accepted message re-encodes to the bytes it
// arrived as. The server and Venus journals frame their WAL payloads
// with the exported Append*/Reader primitives below, which is what lets
// the replication chain fold over bytes every replica reproduces.

// ErrMalformed is wrapped by every decoding failure: unknown tag,
// truncated or trailing bytes, a length larger than the bytes that
// remain, a non-canonical value. The recovery is always the same — drop
// the packet (or, for a journal, fail recovery loudly) — so callers
// match this one error rather than parse messages.
var ErrMalformed = errors.New("malformed message")

// Message tags. The numbering is the protocol: append, never reorder.
const (
	tagGetVolume byte = iota + 1
	tagGetVolumeRep
	tagListVolumes
	tagListVolumesRep
	tagGetAttr
	tagGetAttrRep
	tagFetch
	tagFetchRep
	tagStoreOp
	tagSetAttrOp
	tagMakeObject
	_ // 12 is reserved and decodes as malformed: MakeObject, like every mutation, is answered with MutateRep
	tagRemoveOp
	tagRenameOp
	tagLinkOp
	tagMutateRep
	tagValidateVolumes
	tagValidateVolumesRep
	tagValidateObjects
	tagValidateObjectsRep
	tagGetVolumeStamp
	tagGetVolumeStampRep
	tagReintegrate
	tagReintegrateRep
	tagPutFragment
	tagPutFragmentRep
	tagConnectClient
	tagConnectClientRep
	tagShipLog
	tagShipLogRep
	tagFetchLog
	tagFetchLogRep
	tagCallbackBreak
	tagCallbackBreakRep
)

// Encode serializes a message: exactly one allocation, the returned
// slice. The body is built in a pooled buffer first so the result is
// sized exactly, whatever the message; use it for bytes that outlive the
// call that sends them.
func Encode(v any) ([]byte, error) {
	return encode(v, exact)
}

// EncodeFrame is Encode into a bufpool frame, for a body whose last
// reader is known: its owner frees it there with bufpool.Free. Once the
// pool is warm it allocates nothing.
func EncodeFrame(v any) ([]byte, error) {
	return encode(v, bufpool.Frame)
}

func exact(n int) []byte { return make([]byte, n) }

// encode builds v in a pooled scratch buffer, then copies it into a
// slice from alloc sized to the message.
func encode(v any, alloc func(n int) []byte) ([]byte, error) {
	bp := bufpool.Get(0)
	defer bufpool.Put(bp)
	b, err := appendMessage(*bp, v)
	*bp = b
	if err != nil {
		return nil, fmt.Errorf("wire: encode %T: %w", v, err)
	}
	out := alloc(len(b))
	copy(out, b)
	return out, nil
}

// appendMessage appends v's tag and fields to dst.
//
//codalint:hotpath RPC body framing
func appendMessage(dst []byte, v any) ([]byte, error) {
	switch m := v.(type) {
	case GetVolume:
		dst = append(dst, tagGetVolume)
		dst = AppendString(dst, m.Name)
	case GetVolumeRep:
		dst = append(dst, tagGetVolumeRep)
		dst = AppendVolumeInfo(dst, &m.Info)
		dst = appendStatus(dst, &m.Root)
	case ListVolumes:
		dst = append(dst, tagListVolumes)
	case ListVolumesRep:
		dst = append(dst, tagListVolumesRep)
		dst = appendSlice(dst, m.Infos, AppendVolumeInfo)
	case GetAttr:
		dst = append(dst, tagGetAttr)
		dst = AppendFID(dst, m.FID)
		dst = AppendBool(dst, m.WantCallback)
	case GetAttrRep:
		dst = append(dst, tagGetAttrRep)
		dst = appendStatus(dst, &m.Status)
	case Fetch:
		dst = append(dst, tagFetch)
		dst = AppendFID(dst, m.FID)
		dst = AppendBool(dst, m.WantCallback)
	case FetchRep:
		dst = append(dst, tagFetchRep)
		dst = AppendObject(dst, &m.Object)
	case StoreOp:
		dst = append(dst, tagStoreOp)
		dst = AppendFID(dst, m.FID)
		dst = appendBytes(dst, m.Data)
		dst = AppendUvarint(dst, m.PrevVersion)
	case SetAttrOp:
		dst = append(dst, tagSetAttrOp)
		dst = AppendFID(dst, m.FID)
		dst = AppendUvarint(dst, uint64(m.Mode))
		dst = AppendTime(dst, m.ModTime)
		dst = AppendUvarint(dst, m.PrevVersion)
	case MakeObject:
		dst = append(dst, tagMakeObject)
		dst = AppendFID(dst, m.Parent)
		dst = AppendString(dst, m.Name)
		dst = AppendFID(dst, m.FID)
		dst = append(dst, byte(m.Type))
		dst = AppendString(dst, m.Target)
		dst = AppendUvarint(dst, uint64(m.Mode))
		dst = AppendString(dst, m.Owner)
	case RemoveOp:
		dst = append(dst, tagRemoveOp)
		dst = AppendFID(dst, m.Parent)
		dst = AppendString(dst, m.Name)
		dst = AppendFID(dst, m.FID)
		dst = AppendBool(dst, m.Rmdir)
	case RenameOp:
		dst = append(dst, tagRenameOp)
		dst = AppendFID(dst, m.Parent)
		dst = AppendString(dst, m.Name)
		dst = AppendFID(dst, m.NewParent)
		dst = AppendString(dst, m.NewName)
		dst = AppendFID(dst, m.FID)
	case LinkOp:
		dst = append(dst, tagLinkOp)
		dst = AppendFID(dst, m.Parent)
		dst = AppendString(dst, m.Name)
		dst = AppendFID(dst, m.FID)
	case MutateRep:
		dst = append(dst, tagMutateRep)
		dst = appendStatus(dst, &m.Status)
		dst = appendStatus(dst, &m.ParentStatus)
		dst = AppendUvarint(dst, m.VolStamp)
	case ValidateVolumes:
		dst = append(dst, tagValidateVolumes)
		dst = appendSlice(dst, m.Volumes, appendVolStampPair)
	case ValidateVolumesRep:
		dst = append(dst, tagValidateVolumesRep)
		dst = appendBools(dst, m.Valid)
		dst = AppendUvarints(dst, m.Stamps)
	case ValidateObjects:
		dst = append(dst, tagValidateObjects)
		dst = appendSlice(dst, m.Objects, appendFIDVersion)
	case ValidateObjectsRep:
		dst = append(dst, tagValidateObjectsRep)
		dst = appendBools(dst, m.Valid)
		dst = appendSlice(dst, m.Statuses, appendStatus)
	case GetVolumeStamp:
		dst = append(dst, tagGetVolumeStamp)
		dst = AppendUvarint(dst, uint64(m.Volume))
	case GetVolumeStampRep:
		dst = append(dst, tagGetVolumeStampRep)
		dst = AppendUvarint(dst, m.Stamp)
	case Reintegrate:
		dst = append(dst, tagReintegrate)
		return appendReintegrate(dst, &m)
	case ReintegrateRep:
		dst = append(dst, tagReintegrateRep)
		dst = AppendBool(dst, m.Applied)
		dst = appendSlice(dst, m.Results, appendRecordResult)
		dst = appendSlice(dst, m.Statuses, appendStatus)
		dst = AppendUvarint(dst, m.VolStamp)
	case PutFragment:
		dst = append(dst, tagPutFragment)
		dst = AppendUvarint(dst, m.Transfer)
		dst = AppendUvarint(dst, uint64(m.Offset))
		dst = AppendUvarint(dst, uint64(m.Total))
		dst = appendBytes(dst, m.Data)
	case PutFragmentRep:
		dst = append(dst, tagPutFragmentRep)
		dst = AppendUvarint(dst, uint64(m.Received))
	case ConnectClient:
		dst = append(dst, tagConnectClient)
	case ConnectClientRep:
		dst = append(dst, tagConnectClientRep)
		dst = AppendTime(dst, m.ServerTime)
	case ShipLog:
		dst = append(dst, tagShipLog)
		dst = AppendUvarint(dst, uint64(m.Volume))
		dst = binary.LittleEndian.AppendUint32(dst, m.PrevChain)
		dst = appendLogEntry(dst, &m.Entry)
	case ShipLogRep:
		dst = append(dst, tagShipLogRep)
		dst = AppendUvarint(dst, m.LSN)
		dst = AppendBool(dst, m.NeedCatchUp)
	case FetchLog:
		dst = append(dst, tagFetchLog)
		dst = AppendUvarint(dst, uint64(m.Volume))
		dst = AppendUvarint(dst, m.AfterLSN)
		dst = binary.LittleEndian.AppendUint32(dst, m.Chain)
	case FetchLogRep:
		dst = append(dst, tagFetchLogRep)
		dst = appendSlice(dst, m.Entries, appendLogEntry)
		dst = AppendUvarint(dst, m.LSN)
	case CallbackBreak:
		dst = append(dst, tagCallbackBreak)
		dst = AppendUvarint(dst, uint64(len(m.FIDs)))
		for _, f := range m.FIDs {
			dst = AppendFID(dst, f)
		}
		dst = AppendUvarint(dst, uint64(len(m.Volumes)))
		for _, id := range m.Volumes {
			dst = AppendUvarint(dst, uint64(id))
		}
	case CallbackBreakRep:
		dst = append(dst, tagCallbackBreakRep)
	default:
		return dst, errors.New("not a wire message")
	}
	return dst, nil
}

// Decode deserializes a message produced by Encode. Any failure wraps
// ErrMalformed; nothing is allocated for a length the input cannot back.
func Decode(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("wire: decode: %w: empty input", ErrMalformed)
	}
	r := NewReader(b[1:])
	var v any
	switch b[0] {
	case tagGetVolume:
		v = GetVolume{Name: r.String()}
	case tagGetVolumeRep:
		var m GetVolumeRep
		r.VolumeInfo(&m.Info)
		readStatus(&r, &m.Root)
		v = m
	case tagListVolumes:
		v = ListVolumes{}
	case tagListVolumesRep:
		m := ListVolumesRep{Infos: makeSlice[codafs.VolumeInfo](&r, 3)}
		for i := range m.Infos {
			r.VolumeInfo(&m.Infos[i])
		}
		v = m
	case tagGetAttr:
		v = GetAttr{FID: r.FID(), WantCallback: r.Bool()}
	case tagGetAttrRep:
		var m GetAttrRep
		readStatus(&r, &m.Status)
		v = m
	case tagFetch:
		v = Fetch{FID: r.FID(), WantCallback: r.Bool()}
	case tagFetchRep:
		var m FetchRep
		r.Object(&m.Object)
		v = m
	case tagStoreOp:
		v = StoreOp{FID: r.FID(), Data: r.bytes(), PrevVersion: r.Uvarint()}
	case tagSetAttrOp:
		v = SetAttrOp{FID: r.FID(), Mode: r.Uint32(), ModTime: r.Time(), PrevVersion: r.Uvarint()}
	case tagMakeObject:
		v = MakeObject{Parent: r.FID(), Name: r.String(), FID: r.FID(), Type: codafs.ObjType(r.Byte()),
			Target: r.String(), Mode: r.Uint32(), Owner: r.String()}
	case tagRemoveOp:
		v = RemoveOp{Parent: r.FID(), Name: r.String(), FID: r.FID(), Rmdir: r.Bool()}
	case tagRenameOp:
		v = RenameOp{Parent: r.FID(), Name: r.String(), NewParent: r.FID(), NewName: r.String(), FID: r.FID()}
	case tagLinkOp:
		v = LinkOp{Parent: r.FID(), Name: r.String(), FID: r.FID()}
	case tagMutateRep:
		var m MutateRep
		readStatus(&r, &m.Status)
		readStatus(&r, &m.ParentStatus)
		m.VolStamp = r.Uvarint()
		v = m
	case tagValidateVolumes:
		m := ValidateVolumes{Volumes: makeSlice[VolStampPair](&r, 2)}
		for i := range m.Volumes {
			m.Volumes[i] = VolStampPair{ID: r.volumeID(), Stamp: r.Uvarint()}
		}
		v = m
	case tagValidateVolumesRep:
		v = ValidateVolumesRep{Valid: r.bools(), Stamps: r.Uvarints()}
	case tagValidateObjects:
		m := ValidateObjects{Objects: makeSlice[FIDVersion](&r, 4)}
		for i := range m.Objects {
			m.Objects[i] = FIDVersion{FID: r.FID(), Version: r.Uvarint()}
		}
		v = m
	case tagValidateObjectsRep:
		v = ValidateObjectsRep{Valid: r.bools(), Statuses: r.statuses()}
	case tagGetVolumeStamp:
		v = GetVolumeStamp{Volume: r.volumeID()}
	case tagGetVolumeStampRep:
		v = GetVolumeStampRep{Stamp: r.Uvarint()}
	case tagReintegrate:
		var m Reintegrate
		readReintegrate(&r, &m)
		v = m
	case tagReintegrateRep:
		m := ReintegrateRep{Applied: r.Bool(), Results: makeSlice[RecordResult](&r, 2)}
		for i := range m.Results {
			readRecordResult(&r, &m.Results[i])
		}
		m.Statuses = r.statuses()
		m.VolStamp = r.Uvarint()
		v = m
	case tagPutFragment:
		v = PutFragment{Transfer: r.Uvarint(), Offset: int64(r.Uvarint()), Total: int64(r.Uvarint()), Data: r.bytes()}
	case tagPutFragmentRep:
		v = PutFragmentRep{Received: int64(r.Uvarint())}
	case tagConnectClient:
		v = ConnectClient{}
	case tagConnectClientRep:
		v = ConnectClientRep{ServerTime: r.Time()}
	case tagShipLog:
		m := ShipLog{Volume: r.volumeID(), PrevChain: r.fixed32()}
		readLogEntry(&r, &m.Entry)
		v = m
	case tagShipLogRep:
		v = ShipLogRep{LSN: r.Uvarint(), NeedCatchUp: r.Bool()}
	case tagFetchLog:
		v = FetchLog{Volume: r.volumeID(), AfterLSN: r.Uvarint(), Chain: r.fixed32()}
	case tagFetchLogRep:
		m := FetchLogRep{Entries: makeSlice[LogEntry](&r, 7)}
		for i := range m.Entries {
			readLogEntry(&r, &m.Entries[i])
		}
		m.LSN = r.Uvarint()
		v = m
	case tagCallbackBreak:
		m := CallbackBreak{FIDs: makeSlice[codafs.FID](&r, 3)}
		for i := range m.FIDs {
			m.FIDs[i] = r.FID()
		}
		m.Volumes = makeSlice[codafs.VolumeID](&r, 1)
		for i := range m.Volumes {
			m.Volumes[i] = r.volumeID()
		}
		v = m
	case tagCallbackBreakRep:
		v = CallbackBreakRep{}
	default:
		return nil, fmt.Errorf("wire: decode: %w: unknown tag %d", ErrMalformed, b[0])
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wire: decode tag %d: %w", b[0], err)
	}
	return v, nil
}

// ---- Append primitives ----

// AppendUvarint appends v as a minimal base-128 varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendBool appends b as one byte, 0 or 1.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendUvarints appends a uvarint count and each element as a uvarint.
func AppendUvarints(dst []byte, s []uint64) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	for _, v := range s {
		dst = AppendUvarint(dst, v)
	}
	return dst
}

// AppendTime appends the instant t names — zigzag-varint Unix seconds,
// then uvarint nanoseconds — and nothing else about it: location and
// monotonic reading do not travel, so equal instants encode equally on
// every machine. The zero Time is an instant like any other.
func AppendTime(dst []byte, t time.Time) []byte {
	dst = binary.AppendVarint(dst, t.Unix())
	return AppendUvarint(dst, uint64(t.Nanosecond()))
}

// AppendFID appends the three components as uvarints.
func AppendFID(dst []byte, f codafs.FID) []byte {
	dst = AppendUvarint(dst, uint64(f.Volume))
	dst = AppendUvarint(dst, f.Vnode)
	return AppendUvarint(dst, f.Unique)
}

func appendBools(dst []byte, s []bool) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	for _, b := range s {
		dst = AppendBool(dst, b)
	}
	return dst
}

// appendSlice appends a uvarint count and each element through elem.
func appendSlice[T any](dst []byte, s []T, elem func([]byte, *T) []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	for i := range s {
		dst = elem(dst, &s[i])
	}
	return dst
}

// AppendVolumeInfo appends ID, name and stamp.
func AppendVolumeInfo(dst []byte, vi *codafs.VolumeInfo) []byte {
	dst = AppendUvarint(dst, uint64(vi.ID))
	dst = AppendString(dst, vi.Name)
	return AppendUvarint(dst, vi.Stamp)
}

func appendVolStampPair(dst []byte, p *VolStampPair) []byte {
	dst = AppendUvarint(dst, uint64(p.ID))
	return AppendUvarint(dst, p.Stamp)
}

func appendFIDVersion(dst []byte, fv *FIDVersion) []byte {
	dst = AppendFID(dst, fv.FID)
	return AppendUvarint(dst, fv.Version)
}

// Status presence bits, in field order.
const (
	stFID = 1 << iota
	stType
	stLength
	stVersion
	stModTime
	stMode
	stOwner
	stLinks
)

// zeroFID is what the presence masks compare against.
var zeroFID codafs.FID

func statusMask(s *codafs.Status) (m byte) {
	if s.FID != zeroFID {
		m |= stFID
	}
	if s.Type != 0 {
		m |= stType
	}
	if s.Length != 0 {
		m |= stLength
	}
	if s.Version != 0 {
		m |= stVersion
	}
	if !s.ModTime.IsZero() {
		m |= stModTime
	}
	if s.Mode != 0 {
		m |= stMode
	}
	if s.Owner != "" {
		m |= stOwner
	}
	if s.Links != 0 {
		m |= stLinks
	}
	return m
}

func appendStatus(dst []byte, s *codafs.Status) []byte {
	m := statusMask(s)
	dst = append(dst, m)
	if m&stFID != 0 {
		dst = AppendFID(dst, s.FID)
	}
	if m&stType != 0 {
		dst = append(dst, byte(s.Type))
	}
	if m&stLength != 0 {
		dst = AppendUvarint(dst, uint64(s.Length))
	}
	if m&stVersion != 0 {
		dst = AppendUvarint(dst, s.Version)
	}
	if m&stModTime != 0 {
		dst = AppendTime(dst, s.ModTime)
	}
	if m&stMode != 0 {
		dst = AppendUvarint(dst, uint64(s.Mode))
	}
	if m&stOwner != 0 {
		dst = AppendString(dst, s.Owner)
	}
	if m&stLinks != 0 {
		dst = AppendUvarint(dst, uint64(s.Links))
	}
	return dst
}

// namePool recycles the scratch slice AppendObject sorts a directory's
// entry names in, so a directory fetch reply costs no garbage.
var namePool = sync.Pool{New: func() any { return new([]string) }}

// AppendObject appends status, data, the directory entries in sorted
// name order, and the symlink target.
func AppendObject(dst []byte, o *codafs.Object) []byte {
	dst = appendStatus(dst, &o.Status)
	dst = appendBytes(dst, o.Data)
	dst = AppendUvarint(dst, uint64(len(o.Children)))
	if len(o.Children) > 0 {
		names := namePool.Get().(*[]string)
		for name := range o.Children {
			*names = append(*names, name)
		}
		sort.Strings(*names)
		for _, name := range *names {
			dst = AppendString(dst, name)
			dst = AppendFID(dst, o.Children[name])
		}
		*names = (*names)[:0]
		namePool.Put(names)
	}
	return AppendString(dst, o.Target)
}

// Record presence bits, in field order.
const (
	recSeq = 1 << iota
	recTime
	recKind
	recFID
	recParent
	recName
	recNewParent
	recNewName
	recTarget
	recMode
	recModTime
	recOwner
	recData
	recLength
	recPrevVersion
	recPrevParentVersion
)

func recordMask(rec *cml.Record) (m uint16) {
	if rec.Seq != 0 {
		m |= recSeq
	}
	if !rec.Time.IsZero() {
		m |= recTime
	}
	if rec.Kind != 0 {
		m |= recKind
	}
	if rec.FID != zeroFID {
		m |= recFID
	}
	if rec.Parent != zeroFID {
		m |= recParent
	}
	if rec.Name != "" {
		m |= recName
	}
	if rec.NewParent != zeroFID {
		m |= recNewParent
	}
	if rec.NewName != "" {
		m |= recNewName
	}
	if rec.Target != "" {
		m |= recTarget
	}
	if rec.Mode != 0 {
		m |= recMode
	}
	if !rec.ModTime.IsZero() {
		m |= recModTime
	}
	if rec.Owner != "" {
		m |= recOwner
	}
	if len(rec.Data) != 0 {
		m |= recData
	}
	if rec.Length != 0 {
		m |= recLength
	}
	if rec.PrevVersion != 0 {
		m |= recPrevVersion
	}
	if rec.PrevParentVersion != 0 {
		m |= recPrevParentVersion
	}
	return m
}

// AppendRecord appends one CML record: a two-byte presence mask, then
// the non-zero fields in declaration order.
//
//codalint:hotpath CML record framing, shared by RPC bodies and both journals
func AppendRecord(dst []byte, rec *cml.Record) []byte {
	m := recordMask(rec)
	dst = binary.LittleEndian.AppendUint16(dst, m)
	if m&recSeq != 0 {
		dst = AppendUvarint(dst, rec.Seq)
	}
	if m&recTime != 0 {
		dst = AppendTime(dst, rec.Time)
	}
	if m&recKind != 0 {
		dst = append(dst, byte(rec.Kind))
	}
	if m&recFID != 0 {
		dst = AppendFID(dst, rec.FID)
	}
	if m&recParent != 0 {
		dst = AppendFID(dst, rec.Parent)
	}
	if m&recName != 0 {
		dst = AppendString(dst, rec.Name)
	}
	if m&recNewParent != 0 {
		dst = AppendFID(dst, rec.NewParent)
	}
	if m&recNewName != 0 {
		dst = AppendString(dst, rec.NewName)
	}
	if m&recTarget != 0 {
		dst = AppendString(dst, rec.Target)
	}
	if m&recMode != 0 {
		dst = AppendUvarint(dst, uint64(rec.Mode))
	}
	if m&recModTime != 0 {
		dst = AppendTime(dst, rec.ModTime)
	}
	if m&recOwner != 0 {
		dst = AppendString(dst, rec.Owner)
	}
	if m&recData != 0 {
		dst = appendBytes(dst, rec.Data)
	}
	if m&recLength != 0 {
		dst = AppendUvarint(dst, uint64(rec.Length))
	}
	if m&recPrevVersion != 0 {
		dst = AppendUvarint(dst, rec.PrevVersion)
	}
	if m&recPrevParentVersion != 0 {
		dst = AppendUvarint(dst, rec.PrevParentVersion)
	}
	return dst
}

// AppendRecords appends a uvarint count and each record.
func AppendRecords(dst []byte, recs []cml.Record) []byte {
	return appendSlice(dst, recs, AppendRecord)
}

// Result flag bits of a RecordResult.
const (
	resOK = 1 << iota
	resConflict
	resDeltaFailed
)

func appendRecordResult(dst []byte, res *RecordResult) []byte {
	var flags byte
	if res.OK {
		flags |= resOK
	}
	if res.Conflict {
		flags |= resConflict
	}
	if res.DeltaFailed {
		flags |= resDeltaFailed
	}
	dst = append(dst, flags)
	return AppendString(dst, res.Msg)
}

func appendLogEntry(dst []byte, e *LogEntry) []byte {
	dst = AppendUvarint(dst, e.LSN)
	dst = binary.LittleEndian.AppendUint32(dst, e.Chain)
	dst = AppendString(dst, e.Client)
	return AppendRecords(dst, e.Recs)
}

func appendDelta(dst []byte, d *delta.Delta) []byte {
	dst = AppendUvarint(dst, uint64(d.BlockSize))
	dst = append(dst, d.BaseHash[:]...)
	dst = AppendUvarint(dst, uint64(d.TargetSize))
	dst = append(dst, d.TargetHash[:]...)
	dst = AppendUvarint(dst, uint64(len(d.Ops)))
	for i := range d.Ops {
		op := &d.Ops[i]
		dst = AppendUvarint(dst, uint64(op.From))
		dst = AppendUvarint(dst, uint64(op.Blocks))
		dst = appendBytes(dst, op.Literal)
	}
	return dst
}

// appendReintegrate appends the chunk. Fragments and Deltas are keyed
// by record index, so walking the indices visits their entries in
// sorted key order without collecting and sorting the keys; a key that
// names no record cannot be encoded.
func appendReintegrate(dst []byte, m *Reintegrate) ([]byte, error) {
	dst = AppendUvarint(dst, uint64(m.Volume))
	dst = AppendRecords(dst, m.Records)
	dst = AppendUvarint(dst, uint64(len(m.Fragments)))
	found := 0
	for i := 0; i < len(m.Records) && found < len(m.Fragments); i++ {
		if tid, ok := m.Fragments[i]; ok {
			dst = AppendUvarint(dst, uint64(i))
			dst = AppendUvarint(dst, tid)
			found++
		}
	}
	if found != len(m.Fragments) {
		return dst, errors.New("Fragments names a record index outside Records")
	}
	dst = AppendUvarint(dst, uint64(len(m.Deltas)))
	found = 0
	for i := 0; i < len(m.Records) && found < len(m.Deltas); i++ {
		if d, ok := m.Deltas[i]; ok {
			dst = AppendUvarint(dst, uint64(i))
			dst = appendDelta(dst, &d)
			found++
		}
	}
	if found != len(m.Deltas) {
		return dst, errors.New("Deltas names a record index outside Records")
	}
	return dst, nil
}

// ---- Reader ----

// Reader consumes a buffer the Append* primitives produced. The first
// failure sticks: later reads return zero values and allocate nothing,
// so a decoder reads every field unconditionally and checks Done once.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. Decoded strings and byte slices
// are copies; the Reader never retains b past Done.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Done reports the sticky error, or trailing bytes, wrapped in
// ErrMalformed.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.Fail("trailing bytes")
	}
	return r.err
}

// Err reports the sticky error, so a loop that allocates per element can
// stop at the first failure.
func (r *Reader) Err() error { return r.err }

// Fail records a decoding failure the caller found (an ordering or
// format rule of the structure it is reading), wrapped in ErrMalformed.
// The first failure sticks.
func (r *Reader) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, what)
	}
	r.b = nil
}

// Uvarint reads one minimal uvarint.
//
//codalint:hotpath scalar decode
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.Fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Count reads a length or element count and rejects it unless that many
// elements of at least elemMin encoded bytes each could still follow, so
// no caller sizes an allocation from a count the input cannot back.
//
//codalint:hotpath scalar decode
func (r *Reader) Count(elemMin int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/elemMin) {
		r.Fail("length exceeds input")
		return 0
	}
	return int(n)
}

// Byte reads one byte.
//
//codalint:hotpath scalar decode
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.Fail("truncated")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bool reads one byte that must be 0 or 1.
//
//codalint:hotpath scalar decode
func (r *Reader) Bool() bool {
	c := r.Byte()
	if c > 1 {
		r.Fail("bad bool")
	}
	return c == 1
}

// Uint32 reads a uvarint that must fit 32 bits.
//
//codalint:hotpath scalar decode
func (r *Reader) Uint32() uint32 {
	v := r.Uvarint()
	if v > 1<<32-1 {
		r.Fail("uint32 overflow")
		return 0
	}
	return uint32(v)
}

//codalint:hotpath scalar decode
func (r *Reader) fixed32() uint32 {
	if len(r.b) < 4 {
		r.Fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *Reader) hash() (h [16]byte) {
	if len(r.b) < len(h) {
		r.Fail("truncated")
		return h
	}
	copy(h[:], r.b)
	r.b = r.b[len(h):]
	return h
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// bytes reads a length-prefixed byte slice; zero length decodes to nil.
func (r *Reader) bytes() []byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return out
}

// Uvarints reads what AppendUvarints wrote; zero length decodes to nil.
func (r *Reader) Uvarints() []uint64 {
	out := makeSlice[uint64](r, 1)
	for i := range out {
		out[i] = r.Uvarint()
	}
	return out
}

func (r *Reader) bools() []bool {
	out := makeSlice[bool](r, 1)
	for i := range out {
		out[i] = r.Bool()
	}
	return out
}

// Time reads what AppendTime wrote, as a UTC time with no monotonic
// reading; the zero instant comes back as the zero Time.
//
//codalint:hotpath scalar decode
func (r *Reader) Time() (t time.Time) {
	sec, n := binary.Varint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.Fail("bad varint")
		return t
	}
	r.b = r.b[n:]
	nsec := r.Uvarint()
	if nsec >= 1e9 {
		r.Fail("nanoseconds out of range")
		return t
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

//codalint:hotpath scalar decode
func (r *Reader) volumeID() codafs.VolumeID { return codafs.VolumeID(r.Uint32()) }

// FID reads what AppendFID wrote.
//
//codalint:hotpath scalar decode
func (r *Reader) FID() (f codafs.FID) {
	f.Volume, f.Vnode, f.Unique = r.volumeID(), r.Uvarint(), r.Uvarint()
	return f
}

// makeSlice reads an element count and returns that many zero elements
// for the caller to fill; zero length decodes to nil. elemMin is the
// smallest encoding of one element, which bounds the allocation by the
// input that remains.
func makeSlice[T any](r *Reader, elemMin int) []T {
	n := r.Count(elemMin)
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// VolumeInfo reads what AppendVolumeInfo wrote.
func (r *Reader) VolumeInfo(vi *codafs.VolumeInfo) {
	*vi = codafs.VolumeInfo{ID: r.volumeID(), Name: r.String(), Stamp: r.Uvarint()}
}

func readStatus(r *Reader, s *codafs.Status) {
	m := r.Byte()
	if m&stFID != 0 {
		s.FID = r.FID()
	}
	if m&stType != 0 {
		s.Type = codafs.ObjType(r.Byte())
	}
	if m&stLength != 0 {
		s.Length = int64(r.Uvarint())
	}
	if m&stVersion != 0 {
		s.Version = r.Uvarint()
	}
	if m&stModTime != 0 {
		s.ModTime = r.Time()
	}
	if m&stMode != 0 {
		s.Mode = r.Uint32()
	}
	if m&stOwner != 0 {
		s.Owner = r.String()
	}
	if m&stLinks != 0 {
		s.Links = r.Uint32()
	}
	if r.err == nil && statusMask(s) != m {
		r.Fail("status mask marks a zero field present")
	}
}

func (r *Reader) statuses() []codafs.Status {
	out := makeSlice[codafs.Status](r, 1)
	for i := range out {
		readStatus(r, &out[i])
	}
	return out
}

// Object reads what AppendObject wrote into o, which must be zero. A directory's Children is
// never nil, even when empty: Venus installs entries into it directly.
func (r *Reader) Object(o *codafs.Object) {
	readStatus(r, &o.Status)
	o.Data = r.bytes()
	n := r.Count(4) // name length + three FID components
	if n > 0 || o.Status.Type == codafs.Directory {
		o.Children = make(map[string]codafs.FID, n)
	}
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		name := r.String()
		if i > 0 && name <= prev {
			r.Fail("directory entries out of order")
		}
		o.Children[name] = r.FID()
		prev = name
	}
	o.Target = r.String()
}

// Record reads what AppendRecord wrote into rec, which must be zero.
func (r *Reader) Record(rec *cml.Record) {
	if len(r.b) < 2 {
		r.Fail("truncated")
		return
	}
	m := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	if m&recSeq != 0 {
		rec.Seq = r.Uvarint()
	}
	if m&recTime != 0 {
		rec.Time = r.Time()
	}
	if m&recKind != 0 {
		rec.Kind = cml.Kind(r.Byte())
	}
	if m&recFID != 0 {
		rec.FID = r.FID()
	}
	if m&recParent != 0 {
		rec.Parent = r.FID()
	}
	if m&recName != 0 {
		rec.Name = r.String()
	}
	if m&recNewParent != 0 {
		rec.NewParent = r.FID()
	}
	if m&recNewName != 0 {
		rec.NewName = r.String()
	}
	if m&recTarget != 0 {
		rec.Target = r.String()
	}
	if m&recMode != 0 {
		rec.Mode = r.Uint32()
	}
	if m&recModTime != 0 {
		rec.ModTime = r.Time()
	}
	if m&recOwner != 0 {
		rec.Owner = r.String()
	}
	if m&recData != 0 {
		rec.Data = r.bytes()
	}
	if m&recLength != 0 {
		rec.Length = int64(r.Uvarint())
	}
	if m&recPrevVersion != 0 {
		rec.PrevVersion = r.Uvarint()
	}
	if m&recPrevParentVersion != 0 {
		rec.PrevParentVersion = r.Uvarint()
	}
	if r.err == nil && recordMask(rec) != m {
		r.Fail("record mask marks a zero field present")
	}
}

// Records reads what AppendRecords wrote; zero length decodes to nil.
func (r *Reader) Records() []cml.Record {
	out := makeSlice[cml.Record](r, 2)
	for i := range out {
		r.Record(&out[i])
	}
	return out
}

func readRecordResult(r *Reader, res *RecordResult) {
	flags := r.Byte()
	if flags >= resDeltaFailed<<1 {
		r.Fail("bad result flags")
	}
	*res = RecordResult{OK: flags&resOK != 0, Conflict: flags&resConflict != 0,
		DeltaFailed: flags&resDeltaFailed != 0, Msg: r.String()}
}

func readLogEntry(r *Reader, e *LogEntry) {
	*e = LogEntry{LSN: r.Uvarint(), Chain: r.fixed32(), Client: r.String(), Recs: r.Records()}
}

func readDelta(r *Reader, d *delta.Delta) {
	*d = delta.Delta{BlockSize: int(r.Uvarint()), BaseHash: r.hash(), TargetSize: int64(r.Uvarint()),
		TargetHash: r.hash(), Ops: makeSlice[delta.Op](r, 3)}
	for i := range d.Ops {
		d.Ops[i] = delta.Op{From: int(r.Uvarint()), Blocks: int(r.Uvarint()), Literal: r.bytes()}
	}
}

// readIndex reads one Fragments/Deltas key: a record index, strictly
// above the previous key (next is the smallest acceptable value).
func readIndex(r *Reader, next *int, records int) int {
	k := r.Uvarint()
	if k < uint64(*next) || k >= uint64(records) {
		r.Fail("record index out of order or out of range")
		return 0
	}
	*next = int(k) + 1
	return int(k)
}

// readReintegrate reads what appendReintegrate wrote. Empty maps decode
// to nil; the server only reads them.
func readReintegrate(r *Reader, m *Reintegrate) {
	m.Volume = r.volumeID()
	m.Records = r.Records()
	if n := r.Count(2); n > 0 {
		m.Fragments = make(map[int]uint64, n)
		for i, next := 0, 0; i < n && r.err == nil; i++ {
			m.Fragments[readIndex(r, &next, len(m.Records))] = r.Uvarint()
		}
	}
	if n := r.Count(36); n > 0 { // index, two hashes, three more fields
		m.Deltas = make(map[int]delta.Delta, n)
		for i, next := 0, 0; i < n && r.err == nil; i++ {
			k := readIndex(r, &next, len(m.Records))
			var d delta.Delta
			readDelta(r, &d)
			m.Deltas[k] = d
		}
	}
}
