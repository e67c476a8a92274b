//go:build !race

package wire

import (
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
)

// What the decoders allocate is the message they return, so their
// budget is a count, not zero, fenced here. A FetchRep round trip is the
// encoded buffer, the boxed reply, its data and its owner string; a
// Reintegrate adds two names and the data per record, plus the record
// slice. Under the race detector sync.Pool drops items at random, so
// these run only without it.

var allocSink any

func roundTripAllocs(t *testing.T, msg any) float64 {
	t.Helper()
	return testing.AllocsPerRun(200, func() {
		buf, err := Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		if allocSink, err = Decode(buf); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocWireFetchRep4K(t *testing.T) {
	st := fullStatus
	st.Length = 4096
	if allocs := roundTripAllocs(t, FetchRep{Object: codafs.Object{Status: st, Data: make([]byte, 4096)}}); allocs > 4 {
		t.Errorf("FetchRep 4 KB round trip: %v allocs, want ≤ 4", allocs)
	}
}

func TestAllocWireReintegrate32(t *testing.T) {
	recs := make([]cml.Record, 32)
	for i := range recs {
		recs[i] = storeRecord(uint64(i+1), make([]byte, 1024))
	}
	if allocs := roundTripAllocs(t, Reintegrate{Volume: 3, Records: recs}); allocs > 99 {
		t.Errorf("Reintegrate of 32 stores round trip: %v allocs, want ≤ 99", allocs)
	}
}

// TestReaderScalarsAllocateNothing fences the scalar fields every walk,
// both journals and both images are built from, fixed32 (coded only by
// ShipLog and FetchLog) included: a decoder reads a well-formed field
// with no heap allocation. Only a failure allocates, for its error.
func TestReaderScalarsAllocateNothing(t *testing.T) {
	var (
		u, count uint64 = 1 << 40, 3 // a count the rest of the input backs
		b        byte   = 0xab
		flag            = true
		u32, fp  uint32 = 1 << 31, 0xdeadbeef
		when            = time.Unix(811_000_000, 5)
		fid             = codafs.FID{Volume: 7, Vnode: 1 << 20, Unique: 3}
	)
	enc := NewEncoder(nil)
	enc.Uvarint(&u)
	enc.Uvarint(&count)
	enc.Byte(&b)
	enc.Bool(&flag)
	enc.Uint32(&u32)
	enc.fixed32(&fp)
	enc.Time(&when)
	enc.FID(&fid)
	in := enc.Bytes()
	allocs := testing.AllocsPerRun(100, func() {
		u, b, flag, u32, fp, when, fid = 0, 0, false, 0, 0, time.Time{}, codafs.FID{}
		r := NewDecoder(in)
		r.Uvarint(&u)
		r.count(0, 1)
		r.Byte(&b)
		r.Bool(&flag)
		r.Uint32(&u32)
		r.fixed32(&fp)
		r.Time(&when)
		r.FID(&fid)
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scalar reads: %v allocs, want 0", allocs)
	}
}
