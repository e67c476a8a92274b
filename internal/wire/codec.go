package wire

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"time"

	"repro/internal/bufpool"
	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/delta"
)

// The codec: one type-tag byte, then the message's fields in declaration
// order with no names, type descriptors or padding (DESIGN.md §14 is the
// field-by-field reference). Every type — each message, both journals'
// entries, both images — is written once, as a walk over its fields that
// a Coder runs in either direction, and every value has one encoding: a
// decoding Coder rejects whatever an encoding one would not have written,
// so accepted bytes re-encode to themselves, which is what lets the
// replication chain fold over bytes every replica reproduces.

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

// messages maps each tag to its message type, as the zero value Decode
// walks into; encode looks a value's tag up by its type here.
var messages = [...]any{
	tagGetVolume: GetVolume{}, tagGetVolumeRep: GetVolumeRep{},
	tagListVolumes: ListVolumes{}, tagListVolumesRep: ListVolumesRep{},
	tagGetAttr: GetAttr{}, tagGetAttrRep: GetAttrRep{},
	tagFetch: Fetch{}, tagFetchRep: FetchRep{},
	tagStoreOp: StoreOp{}, tagSetAttrOp: SetAttrOp{}, tagMakeObject: MakeObject{},
	tagRemoveOp: RemoveOp{}, tagRenameOp: RenameOp{}, tagLinkOp: LinkOp{}, tagMutateRep: MutateRep{},
	tagValidateVolumes: ValidateVolumes{}, tagValidateVolumesRep: ValidateVolumesRep{},
	tagValidateObjects: ValidateObjects{}, tagValidateObjectsRep: ValidateObjectsRep{},
	tagGetVolumeStamp: GetVolumeStamp{}, tagGetVolumeStampRep: GetVolumeStampRep{},
	tagReintegrate: Reintegrate{}, tagReintegrateRep: ReintegrateRep{},
	tagPutFragment: PutFragment{}, tagPutFragmentRep: PutFragmentRep{},
	tagConnectClient: ConnectClient{}, tagConnectClientRep: ConnectClientRep{},
	tagShipLog: ShipLog{}, tagShipLogRep: ShipLogRep{},
	tagFetchLog: FetchLog{}, tagFetchLogRep: FetchLogRep{},
	tagCallbackBreak: CallbackBreak{}, tagCallbackBreakRep: CallbackBreakRep{},
}

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
	t := reflect.TypeOf(v)
	tag := slices.IndexFunc(messages[:], func(m any) bool { return m != nil && reflect.TypeOf(m) == t })
	if tag < 0 {
		return nil, fmt.Errorf("wire: encode %T: not a wire message", v)
	}
	bp := bufpool.Get(0)
	defer bufpool.Put(bp)
	c := NewEncoder(append(*bp, byte(tag)))
	c.message(v)
	*bp = c.dst
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("wire: encode %T: %w", v, err)
	}
	out := alloc(len(c.dst))
	copy(out, c.dst)
	return out, nil
}

// Decode deserializes a message produced by Encode. Any failure wraps
// ErrMalformed; nothing is allocated for a length the input cannot back.
func Decode(b []byte) (any, error) {
	if len(b) == 0 || int(b[0]) >= len(messages) || messages[b[0]] == nil {
		return nil, fmt.Errorf("wire: decode: %w: empty input or unknown tag", ErrMalformed)
	}
	c := NewDecoder(b[1:])
	v := c.message(messages[b[0]])
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("wire: decode tag %d: %w", b[0], err)
	}
	return v, nil
}

// decoded returns m boxed when decoding, nothing when encoding (which
// must not allocate).
func decoded[T any](c *Coder, m *T) any {
	if c.dec {
		return *m
	}
	return nil
}

// message walks v's fields; decoding, v is the zero value of the tagged
// type and the result is what was read into it.
func (c *Coder) message(v any) any {
	switch m := v.(type) {
	case GetVolume:
		c.String(&m.Name)
		return decoded(c, &m)
	case GetVolumeRep:
		c.VolumeInfo(&m.Info)
		c.status(&m.Root)
		return decoded(c, &m)
	case ListVolumes, ConnectClient, CallbackBreakRep:
		return decoded(c, &m)
	case ListVolumesRep:
		each(c, &m.Infos, 3, c.VolumeInfo)
		return decoded(c, &m)
	case GetAttr:
		c.FID(&m.FID)
		c.Bool(&m.WantCallback)
		return decoded(c, &m)
	case GetAttrRep:
		c.status(&m.Status)
		return decoded(c, &m)
	case Fetch:
		c.FID(&m.FID)
		c.Bool(&m.WantCallback)
		return decoded(c, &m)
	case FetchRep:
		c.Object(&m.Object)
		return decoded(c, &m)
	case StoreOp:
		c.FID(&m.FID)
		c.bytes(&m.Data)
		c.Uvarint(&m.PrevVersion)
		return decoded(c, &m)
	case SetAttrOp:
		c.FID(&m.FID)
		c.Uint32(&m.Mode)
		c.Time(&m.ModTime)
		c.Uvarint(&m.PrevVersion)
		return decoded(c, &m)
	case MakeObject:
		c.FID(&m.Parent)
		c.String(&m.Name)
		c.FID(&m.FID)
		c.Byte((*byte)(&m.Type))
		c.String(&m.Target)
		c.Uint32(&m.Mode)
		c.String(&m.Owner)
		return decoded(c, &m)
	case RemoveOp:
		c.FID(&m.Parent)
		c.String(&m.Name)
		c.FID(&m.FID)
		c.Bool(&m.Rmdir)
		return decoded(c, &m)
	case RenameOp:
		c.FID(&m.Parent)
		c.String(&m.Name)
		c.FID(&m.NewParent)
		c.String(&m.NewName)
		c.FID(&m.FID)
		return decoded(c, &m)
	case LinkOp:
		c.FID(&m.Parent)
		c.String(&m.Name)
		c.FID(&m.FID)
		return decoded(c, &m)
	case MutateRep:
		c.status(&m.Status)
		c.status(&m.ParentStatus)
		c.Uvarint(&m.VolStamp)
		return decoded(c, &m)
	case ValidateVolumes:
		each(c, &m.Volumes, 2, func(p *VolStampPair) {
			c.volumeID(&p.ID)
			c.Uvarint(&p.Stamp)
		})
		return decoded(c, &m)
	case ValidateVolumesRep:
		each(c, &m.Valid, 1, c.Bool)
		c.Uvarints(&m.Stamps)
		return decoded(c, &m)
	case ValidateObjects:
		each(c, &m.Objects, 4, func(p *FIDVersion) {
			c.FID(&p.FID)
			c.Uvarint(&p.Version)
		})
		return decoded(c, &m)
	case ValidateObjectsRep:
		each(c, &m.Valid, 1, c.Bool)
		each(c, &m.Statuses, 1, c.status)
		return decoded(c, &m)
	case GetVolumeStamp:
		c.volumeID(&m.Volume)
		return decoded(c, &m)
	case GetVolumeStampRep:
		c.Uvarint(&m.Stamp)
		return decoded(c, &m)
	case Reintegrate:
		c.reintegrate(&m)
		return decoded(c, &m)
	case ReintegrateRep:
		c.Bool(&m.Applied)
		each(c, &m.Results, 2, c.recordResult)
		each(c, &m.Statuses, 1, c.status)
		c.Uvarint(&m.VolStamp)
		return decoded(c, &m)
	case PutFragment:
		c.Uvarint(&m.Transfer)
		c.Int64(&m.Offset)
		c.Int64(&m.Total)
		c.bytes(&m.Data)
		return decoded(c, &m)
	case PutFragmentRep:
		c.Int64(&m.Received)
		return decoded(c, &m)
	case ConnectClientRep:
		c.Time(&m.ServerTime)
		return decoded(c, &m)
	case ShipLog:
		c.volumeID(&m.Volume)
		c.fixed32(&m.PrevChain)
		c.logEntry(&m.Entry)
		return decoded(c, &m)
	case ShipLogRep:
		c.Uvarint(&m.LSN)
		c.Bool(&m.NeedCatchUp)
		return decoded(c, &m)
	case FetchLog:
		c.volumeID(&m.Volume)
		c.Uvarint(&m.AfterLSN)
		c.fixed32(&m.Chain)
		return decoded(c, &m)
	case FetchLogRep:
		each(c, &m.Entries, 7, c.logEntry)
		c.Uvarint(&m.LSN)
		return decoded(c, &m)
	case CallbackBreak:
		each(c, &m.FIDs, 3, c.FID)
		each(c, &m.Volumes, 1, c.volumeID)
		return decoded(c, &m)
	}
	panic(fmt.Sprintf("wire: %T has a tag and no walk", v))
}

// Coder runs a walk over a value's fields in one of two directions. An
// encoder (NewEncoder) appends each field it is handed to its buffer; a
// decoder (NewDecoder) reads each field from its input into the place it
// is handed, which must start zero. An encoder only reads what it is
// handed, so encoding a shared value needs no lock beyond the one that
// keeps it from changing. A decoder's first failure sticks:
// later fields read as zero values and allocate nothing, so a walk codes
// every field unconditionally and checks Done once.
type Coder struct {
	dst     []byte // encoding: the bytes so far
	in      []byte // decoding: the bytes not yet read
	dec     bool
	sizing  bool // encoding only to count: byte slices are counted, not copied
	skipped int  // sizing: the byte-slice bytes counted
	err     error
}

// NewEncoder returns a Coder that appends to dst.
func NewEncoder(dst []byte) Coder { return Coder{dst: dst} }

// NewDecoder returns a Coder that reads b. Decoded strings and byte
// slices are copies; the Coder never retains b past Done.
func NewDecoder(b []byte) Coder { return Coder{in: b, dec: true} }

// Bytes returns what an encoder has written.
func (c *Coder) Bytes() []byte { return c.dst }

// Sized returns what walk encodes, in a buffer allocated once at its
// exact size: walk runs twice, first to count — file contents, nearly
// all of a large value, are counted and not copied — then to encode.
// It is for values too large to build by append, such as an image.
func Sized(walk func(c *Coder)) []byte {
	c := Coder{sizing: true}
	walk(&c)
	c = NewEncoder(make([]byte, 0, len(c.dst)+c.skipped))
	walk(&c)
	return c.dst
}

// Done reports the first failure, or a decoder's trailing bytes, wrapped
// in ErrMalformed.
func (c *Coder) Done() error {
	if c.dec && c.err == nil && len(c.in) != 0 {
		c.Fail("trailing bytes")
	}
	return c.err
}

// Fail records a failure the walk found (a rule of the structure it codes,
// beyond the form of one field), wrapped in ErrMalformed. The first
// failure sticks.
func (c *Coder) Fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrMalformed, what)
	}
	c.in = nil
}

// Uvarint codes a minimal base-128 varint.
func (c *Coder) Uvarint(p *uint64) {
	if !c.dec {
		c.dst = binary.AppendUvarint(c.dst, *p)
		return
	}
	v, n := binary.Uvarint(c.in)
	if n <= 0 || (n > 1 && c.in[n-1] == 0) {
		c.Fail("bad uvarint")
		return
	}
	c.in = c.in[n:]
	*p = v
}

// Uint32 codes a uvarint that must fit 32 bits.
func (c *Coder) Uint32(p *uint32) {
	v := uint64(*p)
	c.Uvarint(&v)
	if v > 1<<32-1 {
		c.Fail("uint32 overflow")
	} else if c.dec {
		*p = uint32(v)
	}
}

func (c *Coder) volumeID(p *codafs.VolumeID) { c.Uint32((*uint32)(p)) }

// Int64 codes a uvarint of the value's two's-complement bits.
func (c *Coder) Int64(p *int64) {
	v := uint64(*p)
	c.Uvarint(&v)
	if c.dec {
		*p = int64(v)
	}
}

// Int is Int64 for an int.
func (c *Coder) Int(p *int) {
	v := uint64(*p)
	c.Uvarint(&v)
	if c.dec {
		*p = int(v)
	}
}

// Byte codes one byte.
func (c *Coder) Byte(p *byte) {
	if !c.dec {
		c.dst = append(c.dst, *p)
		return
	}
	if len(c.in) == 0 {
		c.Fail("truncated")
		return
	}
	*p, c.in = c.in[0], c.in[1:]
}

// Bool codes one byte that must be 0 or 1.
func (c *Coder) Bool(p *bool) {
	b := byte(bit(*p, 1))
	c.Byte(&b)
	if b > 1 {
		c.Fail("bad bool")
	} else if c.dec {
		*p = b == 1
	}
}

// raw codes len(p) bytes as they are.
func (c *Coder) raw(p []byte) {
	if !c.dec {
		c.dst = append(c.dst, p...)
		return
	}
	if len(c.in) < len(p) {
		c.Fail("truncated")
		return
	}
	c.in = c.in[copy(p, c.in):]
}

// Magic codes the bytes of s as they are, the signature of a format.
func (c *Coder) Magic(s string) {
	b := []byte(s)
	c.raw(b)
	if string(b) != s {
		c.Fail("unrecognised format")
	}
}

func (c *Coder) fixed32(p *uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], *p)
	c.raw(b[:])
	if c.dec {
		*p = binary.LittleEndian.Uint32(b[:])
	}
}

// count codes a length or element count. A decoder rejects one unless
// that many elements of at least elemMin encoded bytes each could still
// follow, so no walk sizes an allocation from a count the input cannot
// back.
func (c *Coder) count(n, elemMin int) int {
	v := uint64(n)
	c.Uvarint(&v)
	if c.dec && v > uint64(len(c.in)/elemMin) {
		c.Fail("length exceeds input")
		return 0
	}
	return int(v)
}

// String codes a length-prefixed string.
func (c *Coder) String(p *string) {
	n := c.count(len(*p), 1)
	if !c.dec {
		c.dst = append(c.dst, *p...)
		return
	}
	*p, c.in = string(c.in[:n]), c.in[n:]
}

// bytes codes a length-prefixed byte slice; zero length decodes to nil.
func (c *Coder) bytes(p *[]byte) {
	n := c.count(len(*p), 1)
	switch {
	case c.sizing:
		c.skipped += n
	case !c.dec:
		c.dst = append(c.dst, *p...)
	case n > 0:
		*p, c.in = append([]byte(nil), c.in[:n]...), c.in[n:]
	}
}

// elems codes the length of *s and returns *s for the walk to code each
// element of: decoding, that many zero elements (nil for none).
func elems[T any](c *Coder, s *[]T, elemMin int) []T {
	if n := c.count(len(*s), elemMin); c.dec && n > 0 {
		*s = make([]T, n)
	}
	return *s
}

// each codes the length of *s, then each element by elem.
func each[T any](c *Coder, s *[]T, elemMin int, elem func(*T)) {
	for i := range elems(c, s, elemMin) {
		elem(&(*s)[i])
	}
}

// Uvarints codes a count and each element as a uvarint. Not through each:
// inlined into another package, its method value moves the Coder to the heap.
func (c *Coder) Uvarints(s *[]uint64) {
	for i := range elems(c, s, 1) {
		c.Uvarint(&(*s)[i])
	}
}

// Map codes m as a count and its entries in strictly ascending key
// order by compare; entry codes one entry, its key included, and returns
// it. A decoder rejects a repeated or descending key (a duplicate would
// silently overwrite the earlier entry) and leaves *m nil when there is
// none to add.
func Map[K comparable, V any](c *Coder, m *map[K]V, elemMin int, compare func(a, b K) int, entry func(K, V) (K, V)) {
	n := c.count(len(*m), elemMin)
	if !c.dec {
		keys := make([]K, 0, n)
		for k := range *m {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, compare)
		for _, k := range keys {
			entry(k, (*m)[k])
		}
		return
	}
	if n > 0 && *m == nil {
		*m = make(map[K]V, n)
	}
	var prev K
	for i := 0; i < n && c.err == nil; i++ {
		var k K
		var v V
		if k, v = entry(k, v); i > 0 && compare(prev, k) >= 0 {
			c.Fail("keys out of order")
		}
		(*m)[k], prev = v, k
	}
}

// Time codes the instant t names — zigzag-varint Unix seconds, then
// uvarint nanoseconds — and nothing else about it: location and
// monotonic reading do not travel, so equal instants encode equally on
// every machine. The zero Time is an instant like any other; a decoded
// one is UTC with no monotonic reading.
func (c *Coder) Time(t *time.Time) {
	sec, nsec := t.Unix(), uint64(t.Nanosecond())
	zigzag := uint64(sec<<1) ^ uint64(sec>>63)
	c.Uvarint(&zigzag)
	c.Uvarint(&nsec)
	if nsec >= 1e9 {
		c.Fail("nanoseconds out of range")
	} else if c.dec && c.err == nil {
		*t = time.Unix(int64(zigzag>>1)^-int64(zigzag&1), int64(nsec)).UTC()
	}
}

// FID codes the three components as uvarints.
func (c *Coder) FID(f *codafs.FID) {
	c.volumeID(&f.Volume)
	c.Uvarint(&f.Vnode)
	c.Uvarint(&f.Unique)
}

// VolumeInfo codes ID, name and stamp.
func (c *Coder) VolumeInfo(vi *codafs.VolumeInfo) {
	c.volumeID(&vi.ID)
	c.String(&vi.Name)
	c.Uvarint(&vi.Stamp)
}

// bit returns b if on, else zero: one bit of a mask or flag byte.
func bit(on bool, b uint16) uint16 {
	if on {
		return b
	}
	return 0
}

// mask codes a presence mask of width bytes, little-endian, ahead of the
// fields it marks: encoding, want (the value's mask) is written;
// decoding, the mask read is returned, for the walk to compare with the
// mask of what the fields it marks decoded to.
func (c *Coder) mask(want uint16, width int) uint16 {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], want)
	c.raw(b[:width])
	return binary.LittleEndian.Uint16(b[:])
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

func statusMask(s *codafs.Status) uint16 {
	return bit(s.FID != zeroFID, stFID) | bit(s.Type != 0, stType) | bit(s.Length != 0, stLength) |
		bit(s.Version != 0, stVersion) | bit(!s.ModTime.IsZero(), stModTime) | bit(s.Mode != 0, stMode) |
		bit(s.Owner != "", stOwner) | bit(s.Links != 0, stLinks)
}

// status codes a one-byte presence mask and the fields it marks.
func (c *Coder) status(s *codafs.Status) {
	m := c.mask(statusMask(s), 1)
	for rest := m; rest != 0; rest &= rest - 1 {
		switch rest & -rest { // each marked field, in field order
		case stFID:
			c.FID(&s.FID)
		case stType:
			c.Byte((*byte)(&s.Type))
		case stLength:
			c.Int64(&s.Length)
		case stVersion:
			c.Uvarint(&s.Version)
		case stModTime:
			c.Time(&s.ModTime)
		case stMode:
			c.Uint32(&s.Mode)
		case stOwner:
			c.String(&s.Owner)
		case stLinks:
			c.Uint32(&s.Links)
		}
	}
	if c.dec && statusMask(s) != m {
		c.Fail("status mask marks a zero field present")
	}
}

// Object codes status, data, the directory entries in ascending name
// order, and the symlink target. A decoded directory's Children is never
// nil, even when empty: Venus installs entries into it directly.
func (c *Coder) Object(o *codafs.Object) {
	c.status(&o.Status)
	c.bytes(&o.Data)
	byName := func(a, b string) int { return strings.Compare(a, b) }
	Map(c, &o.Children, 4, byName, func(name string, f codafs.FID) (string, codafs.FID) { // name length + three FID components
		c.String(&name)
		c.FID(&f)
		return name, f
	})
	if c.dec && o.Children == nil && o.Status.Type == codafs.Directory {
		o.Children = map[string]codafs.FID{}
	}
	c.String(&o.Target)
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

func recordMask(r *cml.Record) uint16 {
	return bit(r.Seq != 0, recSeq) | bit(!r.Time.IsZero(), recTime) | bit(r.Kind != 0, recKind) |
		bit(r.FID != zeroFID, recFID) | bit(r.Parent != zeroFID, recParent) | bit(r.Name != "", recName) |
		bit(r.NewParent != zeroFID, recNewParent) | bit(r.NewName != "", recNewName) |
		bit(r.Target != "", recTarget) | bit(r.Mode != 0, recMode) | bit(!r.ModTime.IsZero(), recModTime) |
		bit(r.Owner != "", recOwner) | bit(len(r.Data) != 0, recData) | bit(r.Length != 0, recLength) |
		bit(r.PrevVersion != 0, recPrevVersion) | bit(r.PrevParentVersion != 0, recPrevParentVersion)
}

// Record codes one CML record: a two-byte presence mask, then the
// non-zero fields in declaration order.
func (c *Coder) Record(r *cml.Record) {
	m := c.mask(recordMask(r), 2)
	for rest := m; rest != 0; rest &= rest - 1 {
		switch rest & -rest {
		case recSeq:
			c.Uvarint(&r.Seq)
		case recTime:
			c.Time(&r.Time)
		case recKind:
			c.Byte((*byte)(&r.Kind))
		case recFID:
			c.FID(&r.FID)
		case recParent:
			c.FID(&r.Parent)
		case recName:
			c.String(&r.Name)
		case recNewParent:
			c.FID(&r.NewParent)
		case recNewName:
			c.String(&r.NewName)
		case recTarget:
			c.String(&r.Target)
		case recMode:
			c.Uint32(&r.Mode)
		case recModTime:
			c.Time(&r.ModTime)
		case recOwner:
			c.String(&r.Owner)
		case recData:
			c.bytes(&r.Data)
		case recLength:
			c.Int64(&r.Length)
		case recPrevVersion:
			c.Uvarint(&r.PrevVersion)
		case recPrevParentVersion:
			c.Uvarint(&r.PrevParentVersion)
		}
	}
	if c.dec && recordMask(r) != m {
		c.Fail("record mask marks a zero field present")
	}
}

// Records codes a count and each record, looping itself as Uvarints does;
// zero length decodes to nil.
func (c *Coder) Records(s *[]cml.Record) {
	for i := range elems(c, s, 2) {
		c.Record(&(*s)[i])
	}
}

// Result flag bits of a RecordResult.
const (
	resOK = 1 << iota
	resConflict
	resDeltaFailed
)

func (c *Coder) recordResult(res *RecordResult) {
	flags := byte(bit(res.OK, resOK) | bit(res.Conflict, resConflict) | bit(res.DeltaFailed, resDeltaFailed))
	c.Byte(&flags)
	if flags >= resDeltaFailed<<1 {
		c.Fail("bad result flags")
	} else if c.dec {
		res.OK, res.Conflict, res.DeltaFailed = flags&resOK != 0, flags&resConflict != 0, flags&resDeltaFailed != 0
	}
	c.String(&res.Msg)
}

func (c *Coder) logEntry(e *LogEntry) {
	c.Uvarint(&e.LSN)
	c.fixed32(&e.Chain)
	c.String(&e.Client)
	c.Records(&e.Recs)
}

func (c *Coder) delta(d *delta.Delta) {
	c.Int(&d.BlockSize)
	c.raw(d.BaseHash[:])
	c.Int64(&d.TargetSize)
	c.raw(d.TargetHash[:])
	each(c, &d.Ops, 3, func(op *delta.Op) {
		c.Int(&op.From)
		c.Int(&op.Blocks)
		c.bytes(&op.Literal)
	})
}

// reintegrate codes the chunk. Fragments and Deltas are keyed by record
// index, and a key that names no record is malformed either way. Empty
// maps decode to nil; the server only reads them.
func (c *Coder) reintegrate(m *Reintegrate) {
	c.volumeID(&m.Volume)
	c.Records(&m.Records)
	index := func(i int) int {
		c.Int(&i)
		if uint(i) >= uint(len(m.Records)) {
			c.Fail("record index outside Records")
		}
		return i
	}
	Map(c, &m.Fragments, 2, cmp.Compare[int], func(i int, tid uint64) (int, uint64) {
		i = index(i)
		c.Uvarint(&tid)
		return i, tid
	})
	Map(c, &m.Deltas, 36, cmp.Compare[int], func(i int, d delta.Delta) (int, delta.Delta) { // index, two hashes, three more fields
		i = index(i)
		c.delta(&d)
		return i, d
	})
}
