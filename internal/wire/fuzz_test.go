package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// FuzzDecode: whatever arrives in a packet, Decode returns a message or
// an error wrapping ErrMalformed — it never panics — and an accepted
// input is the canonical encoding of what it decoded to. Allocation is
// bounded by the input, not by the lengths the input claims: the widest
// element, a cml.Record, is 256 bytes in memory and at least 2 on the
// wire, so 160 bytes per input byte is a ceiling no honest decode
// approaches and a forged length would blow through. (The 64 KB of
// slack absorbs what the fuzz worker's own goroutines allocate
// meanwhile; TotalAlloc is process-wide.)
func FuzzDecode(f *testing.F) {
	for _, c := range roundTripCases {
		buf, err := Encode(c.in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{tagReintegrate, 3, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{tagFetchRep, 0, 0xff, 0xff, 0x03})
	// The reserved tags, which decode as malformed.
	f.Add([]byte{3})
	f.Add([]byte{4, 0})
	f.Add([]byte{12})
	f.Add([]byte{27})
	f.Add([]byte{28, 0})
	// A greeting reply as tag 28 once carried it, a server time: still refused.
	sec := utcTime.Unix()
	greeted := binary.AppendUvarint([]byte{28}, uint64(sec<<1)^uint64(sec>>63))
	f.Add(binary.AppendUvarint(greeted, uint64(utcTime.Nanosecond())))
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := Decode(in)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+160*len(in)); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(in), alloc, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("error %v does not wrap ErrMalformed", err)
			}
			return
		}
		again, err := Encode(v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		if !bytes.Equal(again, in) {
			t.Fatalf("accepted input is not canonical:\n in %x\nout %x", in, again)
		}
	})
}
