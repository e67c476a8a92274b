package wire

import (
	"testing"

	"repro/internal/cml"
	"repro/internal/codafs"
)

// The decoders cannot be //codalint:hotpath roots — what they allocate
// is the message they return — so their budget is fenced here instead:
// the bench gate pins allocs/op of both benchmarks in
// bench_baseline.json. A FetchRep round trip is the encoded buffer, the
// boxed reply, its data and its owner string; a Reintegrate adds two
// names and the data per record, plus the record slice.

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
