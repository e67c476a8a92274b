package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/delta"
)

var (
	sampleFID = codafs.FID{Volume: 3, Vnode: 14, Unique: 15}
	dirFID    = codafs.FID{Volume: 3, Vnode: 1, Unique: 1}

	// A time in a zone, and the form rule (c) says it decodes to.
	localTime = time.Date(1995, time.July, 1, 9, 30, 0, 123456789, time.FixedZone("EDT", -4*3600))
	utcTime   = localTime.UTC()

	fullStatus = codafs.Status{FID: sampleFID, Type: codafs.File, Length: 123456, Version: 789,
		ModTime: utcTime, Mode: 0644, Owner: "hqb", Links: 1}
	dirStatus = codafs.Status{FID: dirFID, Type: codafs.Directory, Version: 2, ModTime: utcTime,
		Mode: 0755, Owner: "hqb", Links: 1}
)

func storeRecord(seq uint64, data []byte) cml.Record {
	return cml.Record{Seq: seq, Time: utcTime, Kind: cml.Store, FID: sampleFID, Parent: dirFID,
		Name: "s15.bib", Mode: 0644, ModTime: utcTime, Owner: "hqb", Data: data,
		Length: int64(len(data)), PrevVersion: 7, PrevParentVersion: 2}
}

// everyKind returns one record of each CML kind with the fields that
// kind uses.
func everyKind() []cml.Record {
	newDir := codafs.FID{Volume: 3, Vnode: 20, Unique: 21}
	return []cml.Record{
		storeRecord(1, []byte("contents")),
		{Seq: 2, Time: utcTime, Kind: cml.Create, FID: sampleFID, Parent: dirFID, Name: "f", Mode: 0644, Owner: "hqb"},
		{Seq: 3, Time: utcTime, Kind: cml.Mkdir, FID: newDir, Parent: dirFID, Name: "d", Mode: 0755, Owner: "hqb"},
		{Seq: 4, Time: utcTime, Kind: cml.MakeSymlink, FID: sampleFID, Parent: dirFID, Name: "l", Target: "../x"},
		{Seq: 5, Time: utcTime, Kind: cml.Link, FID: sampleFID, Parent: dirFID, Name: "hard"},
		{Seq: 6, Time: utcTime, Kind: cml.Remove, FID: sampleFID, Parent: dirFID, Name: "f", PrevVersion: 9},
		{Seq: 7, Time: utcTime, Kind: cml.Rmdir, FID: newDir, Parent: dirFID, Name: "d"},
		{Seq: 8, Time: utcTime, Kind: cml.Rename, FID: sampleFID, Parent: dirFID, Name: "a", NewParent: newDir, NewName: "b"},
		{Seq: 9, Time: utcTime, Kind: cml.SetAttr, FID: sampleFID, Mode: 0600, ModTime: utcTime, PrevVersion: 3},
	}
}

func manyRecords(n int) []cml.Record {
	recs := make([]cml.Record, n)
	for i := range recs {
		recs[i] = storeRecord(uint64(i+1), bytes.Repeat([]byte{byte(i)}, i+1))
	}
	return recs
}

// roundTripCases covers all 31 messages, each at least once with every
// field set and, where the codec has a rule for it, once at the edge.
// want is what Decode(Encode(in)) must deep-equal when that is not in
// itself: rule (a) a directory's Children is never nil, rule (b)
// zero-length slices and maps come back nil, rule (c) times come back
// as UTC instants with no monotonic reading.
var roundTripCases = []struct {
	name     string
	in, want any
}{
	{name: "GetVolume", in: GetVolume{Name: "usr"}},
	{name: "GetVolume/empty", in: GetVolume{}},
	{name: "GetVolumeRep", in: GetVolumeRep{Info: codafs.VolumeInfo{ID: 3, Name: "usr", Stamp: 42}, Root: dirStatus}},
	{name: "GetAttr", in: GetAttr{FID: sampleFID, WantCallback: true}},
	{name: "GetAttrRep", in: GetAttrRep{Status: fullStatus}},
	{name: "GetAttrRep/zero", in: GetAttrRep{}},
	{name: "GetAttrRep/local time",
		in:   GetAttrRep{Status: codafs.Status{FID: sampleFID, ModTime: localTime}},
		want: GetAttrRep{Status: codafs.Status{FID: sampleFID, ModTime: utcTime}}},
	{name: "Fetch", in: Fetch{FID: sampleFID}},
	{name: "FetchRep/file", in: FetchRep{Object: codafs.Object{Status: fullStatus, Data: []byte("file contents")}}},
	{name: "FetchRep/empty file",
		in:   FetchRep{Object: codafs.Object{Status: fullStatus, Data: []byte{}}},
		want: FetchRep{Object: codafs.Object{Status: fullStatus}}},
	{name: "FetchRep/directory", in: FetchRep{Object: codafs.Object{Status: dirStatus,
		Children: map[string]codafs.FID{"x": sampleFID, "a": dirFID, "m": {Volume: 3, Vnode: 9, Unique: 9}}}}},
	{name: "FetchRep/empty directory", in: FetchRep{Object: codafs.Object{Status: dirStatus, Children: map[string]codafs.FID{}}}},
	{name: "FetchRep/nil directory",
		in:   FetchRep{Object: codafs.Object{Status: dirStatus}},
		want: FetchRep{Object: codafs.Object{Status: dirStatus, Children: map[string]codafs.FID{}}}},
	{name: "FetchRep/symlink", in: FetchRep{Object: codafs.Object{
		Status: codafs.Status{FID: sampleFID, Type: codafs.Symlink, Links: 1}, Target: "../elsewhere"}}},
	{name: "StoreOp", in: StoreOp{FID: sampleFID, Data: []byte("contents"), PrevVersion: 7}},
	{name: "StoreOp/empty", in: StoreOp{FID: sampleFID, Data: []byte{}}, want: StoreOp{FID: sampleFID}},
	{name: "SetAttrOp", in: SetAttrOp{FID: sampleFID, Mode: 0644, ModTime: utcTime, PrevVersion: 2}},
	{name: "SetAttrOp/zero time", in: SetAttrOp{FID: sampleFID, Mode: 0644}},
	{name: "MakeObject", in: MakeObject{Parent: dirFID, Name: "f", FID: sampleFID, Type: codafs.Symlink,
		Target: "t", Mode: 0777, Owner: "hqb"}},
	{name: "RemoveOp", in: RemoveOp{Parent: dirFID, Name: "f", FID: sampleFID, Rmdir: true}},
	{name: "RenameOp", in: RenameOp{Parent: dirFID, Name: "a", NewParent: dirFID, NewName: "b", FID: sampleFID}},
	{name: "LinkOp", in: LinkOp{Parent: dirFID, Name: "l", FID: sampleFID}},
	{name: "MutateRep", in: MutateRep{Status: fullStatus, ParentStatus: dirStatus, VolStamp: 9}},
	{name: "MutateRep/remove", in: MutateRep{Status: dirStatus, VolStamp: 10}},
	{name: "ValidateVolumes", in: ValidateVolumes{Volumes: []VolStampPair{{ID: 3, Stamp: 42}, {ID: 4, Stamp: 1}}}},
	{name: "ValidateVolumesRep", in: ValidateVolumesRep{Valid: []bool{true, false}, Stamps: []uint64{42, 1 << 63}}},
	{name: "ValidateVolumesRep/nil", in: ValidateVolumesRep{}},
	{name: "ValidateObjects", in: ValidateObjects{Objects: []FIDVersion{{FID: sampleFID, Version: 5}}}},
	{name: "ValidateObjectsRep", in: ValidateObjectsRep{Valid: []bool{false, true}, Statuses: []codafs.Status{fullStatus, {}}}},
	{name: "GetVolumeStamp", in: GetVolumeStamp{Volume: 3}},
	{name: "GetVolumeStampRep", in: GetVolumeStampRep{Stamp: 43}},
	{name: "Reintegrate/every kind", in: Reintegrate{Volume: 3, Records: everyKind()}},
	{name: "Reintegrate/maps", in: Reintegrate{
		Volume:    3,
		Records:   []cml.Record{storeRecord(1, nil), storeRecord(2, nil), storeRecord(3, nil), storeRecord(4, []byte("inline"))},
		Fragments: map[int]uint64{2: 9, 0: 7},
		Deltas: map[int]delta.Delta{
			1: delta.Compute(delta.Sign(bytes.Repeat([]byte("base"), 2048), 0), append(bytes.Repeat([]byte("base"), 2048), "tail"...)),
		},
	}},
	{name: "Reintegrate/empty maps",
		in:   Reintegrate{Volume: 3, Records: []cml.Record{}, Fragments: map[int]uint64{}, Deltas: map[int]delta.Delta{}},
		want: Reintegrate{Volume: 3}},
	{name: "Reintegrate/local time",
		in:   Reintegrate{Volume: 3, Records: []cml.Record{{Kind: cml.SetAttr, FID: sampleFID, Time: localTime, ModTime: localTime}}},
		want: Reintegrate{Volume: 3, Records: []cml.Record{{Kind: cml.SetAttr, FID: sampleFID, Time: utcTime, ModTime: utcTime}}}},
	{name: "Reintegrate/64 records", in: Reintegrate{Volume: 3, Records: manyRecords(64)}},
	{name: "ReintegrateRep", in: ReintegrateRep{Applied: true,
		Results:  []RecordResult{{OK: true}, {Conflict: true, Msg: "version mismatch"}, {DeltaFailed: true}},
		Statuses: []codafs.Status{fullStatus, dirStatus}, VolStamp: 44}},
	{name: "PutFragment", in: PutFragment{Transfer: 9, Offset: 1 << 20, Total: 1 << 21, Data: []byte("0123456789")}},
	{name: "PutFragmentRep", in: PutFragmentRep{Received: 10}},
	{name: "ShipLog", in: ShipLog{Volume: 3, PrevChain: 0xdeadbeef,
		Entry: LogEntry{LSN: 12, Chain: 0xfeedface, Client: "laptop", Recs: everyKind()}}},
	{name: "ShipLogRep", in: ShipLogRep{LSN: 12, NeedCatchUp: true}},
	{name: "FetchLog", in: FetchLog{Volume: 3, AfterLSN: 11, Chain: 0xdeadbeef}},
	{name: "FetchLogRep", in: FetchLogRep{LSN: 14, Entries: []LogEntry{
		{LSN: 12, Chain: 1, Client: "laptop", Recs: everyKind()[:2]},
		{LSN: 13, Chain: 0xffffffff, Client: "desktop", Recs: everyKind()[2:5]},
		{LSN: 14, Chain: 3, Client: "laptop"},
	}}},
	{name: "CallbackBreak", in: CallbackBreak{FIDs: []codafs.FID{sampleFID, dirFID}, Volumes: []codafs.VolumeID{3, 4}}},
	{name: "CallbackBreakRep", in: CallbackBreakRep{}},
}

// TestEncodeDecodeRoundTripAllTypes: Decode(Encode(v)) deep-equals v
// under rules (a)-(c), for every registered message — and still does once
// the frame is overwritten: Decode is a trust edge (codafs.Object), the
// frame is the transport's to reuse and nothing decoded may alias it. The
// one exception is PutFragment.Data, which is lent: it must alias the
// frame, capped at its length, and so shows the overwrite.
func TestEncodeDecodeRoundTripAllTypes(t *testing.T) {
	seen := map[reflect.Type]bool{}
	for _, c := range roundTripCases {
		seen[reflect.TypeOf(c.in)] = true
		buf, err := Encode(c.in)
		if err != nil {
			t.Fatalf("%s: Encode: %v", c.name, err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("%s: Decode: %v", c.name, err)
		}
		var lent []byte
		if m, ok := got.(PutFragment); ok {
			lent = m.Data
			m.Data = bytes.Clone(m.Data)
			got = m
		}
		for i := range buf {
			buf[i] = '#'
		}
		if len(lent) > 0 && (cap(lent) != len(lent) || !bytes.Equal(lent, bytes.Repeat([]byte("#"), len(lent)))) {
			t.Errorf("%s: lent Data %q (cap %d) is not the frame's bytes capped at their length", c.name, lent, cap(lent))
		}
		want := c.want
		if want == nil {
			want = c.in
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip\n got %.400s\nwant %.400s", c.name, fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want))
		}
	}
	// Five tags below the last, 3, 4, 12, 27 and 28, are reserved and name no message.
	if len(seen) != int(tagCallbackBreakRep)-5 {
		t.Errorf("round-trip table covers %d message types, the codec has %d", len(seen), tagCallbackBreakRep-5)
	}
}

// TestEncodeDeterministic: equal values encode to equal bytes, map
// iteration order notwithstanding.
func TestEncodeDeterministic(t *testing.T) {
	for _, c := range roundTripCases {
		first, err := Encode(c.in)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			again, _ := Encode(c.in)
			if !bytes.Equal(first, again) {
				t.Fatalf("%s: encoding %d differs from the first", c.name, i)
			}
		}
	}
}

// TestEncodeSharedConcurrently: an encoder only reads the value it codes.
// A server encodes one log entry's records from two goroutines at once —
// a FetchLogRep answering a peer's pull while the same entry is pushed
// as a ShipLog — holding no lock over either; under -race a store into
// the shared records would show here as a data race.
func TestEncodeSharedConcurrently(t *testing.T) {
	entry := LogEntry{LSN: 2, Chain: 0xdeadbeef, Client: "laptop", Recs: everyKind()}
	msgs := []any{
		ShipLog{Volume: 3, PrevChain: 1, Entry: entry},
		FetchLogRep{Entries: []LogEntry{entry, entry}, LSN: 2},
	}
	want := make([][]byte, len(msgs))
	for i, m := range msgs {
		var err error
		if want[i], err = Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for range 2 {
		for i, m := range msgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 50 {
					if got, err := Encode(m); err != nil || !bytes.Equal(got, want[i]) {
						t.Errorf("%T: concurrent encoding differs (err %v)", m, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}

// TestTimeDropsMonotonic: rule (c) for a wall-clock reading, which
// carries the local zone and a monotonic reading.
func TestTimeDropsMonotonic(t *testing.T) {
	now := time.Now()
	buf, err := Encode(SetAttrOp{FID: sampleFID, ModTime: now})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := (SetAttrOp{FID: sampleFID, ModTime: now.Round(0).UTC()}); got != want {
		t.Errorf("decoded %#v, want %#v", got, want)
	}
}

func TestEncodeRejects(t *testing.T) {
	for _, v := range []any{
		nil, 42, &GetAttr{}, cml.Record{},
		Reintegrate{Records: make([]cml.Record, 1), Fragments: map[int]uint64{1: 9}},
		Reintegrate{Deltas: map[int]delta.Delta{-1: {}}},
	} {
		if _, err := Encode(v); err == nil {
			t.Errorf("Encode(%#v) succeeded", v)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	valid, err := Encode(GetAttrRep{Status: fullStatus})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":              nil,
		"text":               []byte("not a message at all"),
		"tag zero":           {0},
		"unknown tag":        {byte(tagCallbackBreakRep) + 1},
		"trailing byte":      append(append([]byte(nil), valid...), 0),
		"huge string":        {tagGetVolume, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"huge record count":  {tagReintegrate, 3, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"non-minimal varint": {tagGetVolumeStampRep, 0x80, 0x00},
		"varint overflow":    {tagGetVolumeStampRep, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"bool out of range":  {tagShipLogRep, 1, 2},
		"zero field present": {tagGetAttrRep, stLength, 0},
		"volume id too wide": {tagGetVolumeStamp, 0xff, 0xff, 0xff, 0xff, 0x1f},
		"entries out of order": {tagFetchRep, stType, byte(codafs.Directory), 0,
			2, 1, 'b', 1, 1, 1, 1, 'a', 1, 1, 1, 0},
		"fragment index past records": {tagReintegrate, 3, 0, 1, 0, 9, 0},
		"nanoseconds out of range":    {tagSetAttrOp, 0, 0, 0, 0, 0, 0x80, 0x94, 0xeb, 0xdc, 0x03, 0},
	}
	for cut := 0; cut < len(valid); cut++ {
		cases[fmt.Sprintf("truncated at %d", cut)] = valid[:cut]
	}
	for name, in := range cases {
		v, err := Decode(in)
		if err == nil {
			t.Errorf("%s: Decode accepted it as %+v", name, v)
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", name, err)
		}
	}
}

// sizeCases pins each message's encoded size: exactly (the number is the
// format — a change here is a protocol change), and at or below gob, the
// size of the per-message gob stream this codec replaced (measured on
// these values with the last gob Encode, or the figure recorded when the
// replacement was planned, whichever is lower).
var sizeCases = []struct {
	name      string
	msg       any
	size, gob int
}{
	{"GetAttr", GetAttr{FID: sampleFID, WantCallback: true}, 5, 142},
	{"GetAttrRep", GetAttrRep{Status: fullStatus}, 27, 295},
	{"Fetch", Fetch{FID: sampleFID, WantCallback: true}, 5, 139},
	{"FetchRep/empty", FetchRep{}, 5, 354},
	{"StoreOp", StoreOp{FID: sampleFID, Data: []byte("contents"), PrevVersion: 7}, 14, 151},
	{"MutateRep", MutateRep{Status: fullStatus, ParentStatus: dirStatus, VolStamp: 9}, 50, 368},
	{"ValidateVolumes/3", ValidateVolumes{Volumes: []VolStampPair{{1, 10}, {2, 20}, {3, 30}}}, 8, 182},
	{"ValidateVolumesRep/3", ValidateVolumesRep{Valid: []bool{true, true, false}, Stamps: []uint64{10, 20, 31}}, 9, 156},
	{"GetVolumeStamp", GetVolumeStamp{Volume: 3}, 2, 84},
	{"GetVolumeStampRep", GetVolumeStampRep{Stamp: 43}, 2, 89},
	{"Reintegrate/1", Reintegrate{Volume: 3, Records: []cml.Record{storeRecord(1, []byte("contents"))}}, 59, 679},
	{"ReintegrateRep", ReintegrateRep{Applied: true, Results: []RecordResult{{OK: true}}, Statuses: []codafs.Status{fullStatus}, VolStamp: 44}, 33, 490},
	{"PutFragment", PutFragment{Transfer: 9, Offset: 0, Total: 10, Data: []byte("0123456789")}, 15, 113},
	{"PutFragmentRep", PutFragmentRep{Received: 10}, 2, 86},
	{"ShipLog", ShipLog{Volume: 3, PrevChain: 1, Entry: LogEntry{LSN: 2, Chain: 3, Client: "laptop",
		Recs: []cml.Record{storeRecord(1, []byte("contents"))}}}, 73, 472},
	{"ShipLogRep", ShipLogRep{LSN: 2}, 3, 89},
	{"CallbackBreak/1", CallbackBreak{FIDs: []codafs.FID{sampleFID}}, 6, 211},
}

func TestEncodedSizes(t *testing.T) {
	for _, c := range sizeCases {
		buf, err := Encode(c.msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != c.size {
			t.Errorf("%s encodes to %d bytes, pinned at %d", c.name, len(buf), c.size)
		}
		if len(buf) > c.gob {
			t.Errorf("%s encodes to %d bytes, more than gob's %d", c.name, len(buf), c.gob)
		}
	}
}

// TestStatusWireCostNearPaperFigure holds codafs.StatusWireSize — the
// paper's "status information is only about 100 bytes long" (§4.4.1) —
// over a whole GetAttr reply, even with every field of the status at its
// largest and a long owner name, so miss-handling cost estimates in the
// simulator stay faithful.
func TestStatusWireCostNearPaperFigure(t *testing.T) {
	for _, st := range []codafs.Status{
		fullStatus, dirStatus, {},
		{FID: codafs.FID{Volume: 1<<32 - 1, Vnode: 1<<64 - 1, Unique: 1<<64 - 1}, Type: codafs.File,
			Length: 1<<63 - 1, Version: 1<<64 - 1, ModTime: time.Date(2262, 1, 1, 0, 0, 0, 999999999, time.UTC),
			Mode: 1<<32 - 1, Owner: "a-rather-long-owner-name", Links: 1<<32 - 1},
	} {
		buf, err := Encode(GetAttrRep{Status: st})
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) > codafs.StatusWireSize {
			t.Errorf("status reply for %+v = %d bytes, over StatusWireSize %d", st, len(buf), codafs.StatusWireSize)
		}
	}
}

func TestValidationBatchScalesSubLinearly(t *testing.T) {
	// The point of batched validation (§4.2.1): per-volume wire cost must
	// be tens of bytes, far below one RPC each.
	small, _ := Encode(ValidateVolumes{Volumes: make([]VolStampPair, 1)})
	big, _ := Encode(ValidateVolumes{Volumes: make([]VolStampPair, 100)})
	perVolume := (len(big) - len(small)) / 99
	if perVolume > 40 {
		t.Errorf("per-volume validation cost = %d bytes, want ≤ 40", perVolume)
	}
}

// A Record must not cost more than gob's zero-omitting form did (~88
// bytes of framing per record), or bulk reintegration pays on the modem
// what the smaller RPCs save.
func TestRecordOverheadBelowGob(t *testing.T) {
	for _, rec := range everyKind() {
		rec := rec
		c := NewEncoder(nil)
		c.Record(&rec)
		framing := len(c.Bytes()) - len(rec.Name) - len(rec.NewName) - len(rec.Target) - len(rec.Owner) - len(rec.Data)
		if framing > cml.RecordOverhead {
			t.Errorf("%s record carries %d bytes of framing, over cml.RecordOverhead %d", rec.Kind, framing, cml.RecordOverhead)
		}
	}
}

// TestMutationRecordCorrespondence pins the equivalence the one update
// pipeline rests on. For each of the nine CML kinds, a record as Venus
// logs it maps (MutationOf) to exactly the connected-mode request the
// per-operation code used to build by hand — same value, same bytes — and
// that request maps back (RecordOf) to the record on the fields connected
// mode carries, with the status the reply leads with named correctly.
func TestMutationRecordCorrespondence(t *testing.T) {
	newDir := codafs.FID{Volume: 3, Vnode: 20, Unique: 21}
	logged := func(r cml.Record) cml.Record { // what only a logged record has
		r.Seq, r.Time, r.Owner = 41, utcTime, "client-7"
		return r
	}
	cases := []struct {
		rec     cml.Record // as logged
		op      any        // as the operation built it by hand
		carried cml.Record // as the server's handler rebuilt it by hand
		repFID  codafs.FID
	}{
		{rec: logged(cml.Record{Kind: cml.Store, FID: sampleFID, Parent: dirFID, Name: "f", Data: []byte("contents"),
			Length: 8, ModTime: utcTime, PrevVersion: 7}),
			op:      StoreOp{FID: sampleFID, Data: []byte("contents"), PrevVersion: 7},
			carried: cml.Record{Kind: cml.Store, FID: sampleFID, Data: []byte("contents"), Length: 8, PrevVersion: 7},
			repFID:  sampleFID},
		{rec: logged(cml.Record{Kind: cml.Create, FID: sampleFID, Parent: dirFID, Name: "f", ModTime: utcTime, PrevParentVersion: 2}),
			op:      MakeObject{Parent: dirFID, Name: "f", FID: sampleFID, Type: codafs.File, Owner: "client-7"},
			carried: cml.Record{Kind: cml.Create, FID: sampleFID, Parent: dirFID, Name: "f", Owner: "client-7"},
			repFID:  sampleFID},
		{rec: logged(cml.Record{Kind: cml.Mkdir, FID: newDir, Parent: dirFID, Name: "d", ModTime: utcTime, PrevParentVersion: 2}),
			op:      MakeObject{Parent: dirFID, Name: "d", FID: newDir, Type: codafs.Directory, Owner: "client-7"},
			carried: cml.Record{Kind: cml.Mkdir, FID: newDir, Parent: dirFID, Name: "d", Owner: "client-7"},
			repFID:  newDir},
		{rec: logged(cml.Record{Kind: cml.MakeSymlink, FID: sampleFID, Parent: dirFID, Name: "l", Target: "../x", Mode: 0777, ModTime: utcTime}),
			op:      MakeObject{Parent: dirFID, Name: "l", FID: sampleFID, Type: codafs.Symlink, Target: "../x", Mode: 0777, Owner: "client-7"},
			carried: cml.Record{Kind: cml.MakeSymlink, FID: sampleFID, Parent: dirFID, Name: "l", Target: "../x", Mode: 0777, Owner: "client-7"},
			repFID:  sampleFID},
		{rec: logged(cml.Record{Kind: cml.Link, FID: sampleFID, Parent: dirFID, Name: "hard"}),
			op:      LinkOp{Parent: dirFID, Name: "hard", FID: sampleFID},
			carried: cml.Record{Kind: cml.Link, FID: sampleFID, Parent: dirFID, Name: "hard"},
			repFID:  sampleFID},
		{rec: logged(cml.Record{Kind: cml.Remove, FID: sampleFID, Parent: dirFID, Name: "f", PrevVersion: 9}),
			op:      RemoveOp{Parent: dirFID, Name: "f", FID: sampleFID},
			carried: cml.Record{Kind: cml.Remove, FID: sampleFID, Parent: dirFID, Name: "f"},
			repFID:  dirFID},
		{rec: logged(cml.Record{Kind: cml.Rmdir, FID: newDir, Parent: dirFID, Name: "d", PrevVersion: 4}),
			op:      RemoveOp{Parent: dirFID, Name: "d", FID: newDir, Rmdir: true},
			carried: cml.Record{Kind: cml.Rmdir, FID: newDir, Parent: dirFID, Name: "d"},
			repFID:  dirFID},
		{rec: logged(cml.Record{Kind: cml.Rename, FID: sampleFID, Parent: dirFID, Name: "a", NewParent: newDir, NewName: "b"}),
			op:      RenameOp{Parent: dirFID, Name: "a", NewParent: newDir, NewName: "b", FID: sampleFID},
			carried: cml.Record{Kind: cml.Rename, FID: sampleFID, Parent: dirFID, Name: "a", NewParent: newDir, NewName: "b"},
			repFID:  sampleFID},
		{rec: logged(cml.Record{Kind: cml.SetAttr, FID: sampleFID, Mode: 0600, ModTime: utcTime, PrevVersion: 3}),
			op:      SetAttrOp{FID: sampleFID, Mode: 0600, ModTime: utcTime, PrevVersion: 3},
			carried: cml.Record{Kind: cml.SetAttr, FID: sampleFID, Mode: 0600, ModTime: utcTime, PrevVersion: 3},
			repFID:  sampleFID},
	}
	seen := map[cml.Kind]bool{}
	for _, c := range cases {
		kind := c.rec.Kind
		seen[kind] = true
		op := MutationOf(&c.rec)
		if !reflect.DeepEqual(op, c.op) {
			t.Errorf("%s: MutationOf = %+v, want %+v", kind, op, c.op)
		}
		got, err := Encode(op)
		want, _ := Encode(c.op)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: MutationOf encodes to %x (%v), the hand-built request to %x", kind, got, err, want)
		}
		rec, repFID, ok := RecordOf(op)
		if !ok || !reflect.DeepEqual(rec, c.carried) || repFID != c.repFID {
			t.Errorf("%s: RecordOf = %+v, %s, %v\nwant %+v, %s, true", kind, rec, repFID, ok, c.carried, c.repFID)
		}
	}
	for k := cml.Store; k <= cml.SetAttr; k++ {
		if !seen[k] {
			t.Errorf("no case for kind %s", k)
		}
	}
	if op := MutationOf(&cml.Record{Kind: cml.SetAttr + 1}); op != nil {
		t.Errorf("MutationOf of an unknown kind = %+v, want nil", op)
	}
	if _, _, ok := RecordOf(Fetch{FID: sampleFID}); ok {
		t.Error("RecordOf accepted a Fetch as a mutation")
	}
	// Tags 3, 4, 12, 27 and 28 are reserved: a message so tagged is refused, not misread.
	for _, tag := range []byte{3, 4, 12, 27, 28} {
		if _, err := Decode([]byte{tag}); !errors.Is(err, ErrMalformed) {
			t.Errorf("Decode of reserved tag %d: %v, want ErrMalformed", tag, err)
		}
	}
}
