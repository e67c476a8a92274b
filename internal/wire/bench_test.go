package wire

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
)

// What the decoders allocate is the message they return, so their
// budget is a count, not zero, fenced here: the bench gate pins
// allocs/op of both benchmarks in bench_baseline.json. A FetchRep round
// trip is the encoded buffer, the boxed reply, its data and its owner
// string; a Reintegrate adds two names and the data per record, plus the
// record slice.

var benchSink any

func benchRoundTrip(b *testing.B, msg any) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := Encode(msg)
		if err != nil {
			b.Fatal(err)
		}
		if benchSink, err = Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocWireFetchRep4K(b *testing.B) {
	st := fullStatus
	st.Length = 4096
	benchRoundTrip(b, FetchRep{Object: codafs.Object{Status: st, Data: make([]byte, 4096)}})
}

func BenchmarkAllocWireReintegrate32(b *testing.B) {
	recs := make([]cml.Record, 32)
	for i := range recs {
		recs[i] = storeRecord(uint64(i+1), make([]byte, 1024))
	}
	benchRoundTrip(b, Reintegrate{Volume: 3, Records: recs})
}

// TestReaderScalarsAllocateNothing fences the scalar readers every
// decoder and both journals are built from, fixed32 (read only by the
// ShipLog and FetchLog decoders) included: a well-formed field reads with
// no heap allocation. Only a failure allocates, for its error.
func TestReaderScalarsAllocateNothing(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 1<<40)
	b = AppendUvarint(b, 3) // a count the rest of the input backs
	b = append(b, 0xab)
	b = AppendBool(b, true)
	b = AppendUvarint(b, 1<<31)
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = AppendTime(b, time.Unix(811_000_000, 5))
	b = AppendFID(b, codafs.FID{Volume: 7, Vnode: 1 << 20, Unique: 3})
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(b)
		_, _, _, _ = r.Uvarint(), r.Count(1), r.Byte(), r.Bool()
		_, _, _, _ = r.Uint32(), r.fixed32(), r.Time(), r.FID()
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scalar reads: %v allocs, want 0", allocs)
	}
}
