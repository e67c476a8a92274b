package sftp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// TestHeaderBudget pins what the headers cost on the weak link, so a
// field cannot creep back: a fragment of a 36 KB transfer and an
// in-order ack under an rpc2-sized id, and exactly a span context more
// when the stream is traced (the ack request rides in the tag byte).
func TestHeaderBudget(t *testing.T) {
	const size = 36 << 10
	payload := make([]byte, DataPacketSize)
	traced := obs.SpanContext{Trace: 1 << 60, Span: 1<<60 | 7}
	for _, c := range []struct {
		name   string
		id     uint64
		seq    uint32
		budget int
	}{
		{"first fragment", 5, 0, 8},
		{"last full fragment, id just under 2^14", 1<<14 - 1, size/DataPacketSize - 1, 8},
	} {
		plain := len(appendData(nil, c.id, c.seq, size, obs.SpanContext{}, false, payload)) - len(payload)
		if plain > c.budget {
			t.Errorf("%s: %d header bytes, budget %d", c.name, plain, c.budget)
		}
		if with := len(appendData(nil, c.id, c.seq, size, traced, true, payload)) - len(payload); with != plain+16 {
			t.Errorf("%s: traced header is %d bytes, want %d+16", c.name, with, plain)
		}
	}
	if n := len(appendAck(nil, 1<<14-1, size/DataPacketSize, 0)); n > 6 {
		t.Errorf("in-order ack: %d bytes, budget 6", n)
	}
	if worst := len(appendData(nil, 1<<64-1, 1<<32-1, maxTotalBytes, traced, true, nil)); worst != dataHeader {
		t.Errorf("largest data header is %d bytes, dataHeader says %d", worst, dataHeader)
	}
	if worst := len(appendAck(nil, 1<<64-1, 1<<32-1, 1<<64-1)); worst != ackHeader {
		t.Errorf("largest ack is %d bytes, ackHeader says %d", worst, ackHeader)
	}
}

// cuts reports whether total packets is what a sender cuts totalBytes
// into: the last one neither empty (unless it is the only one) nor
// missing.
func cuts(total uint32, totalBytes uint64) bool {
	full := uint64(total) * DataPacketSize
	return total == 1 && totalBytes == 0 || total > 0 && totalBytes <= full && totalBytes > full-DataPacketSize
}

// TestHeaderRoundTrip: whatever Send and the receiver can frame decodes
// to the same values, across the whole range of every field and with or
// without the ack request, and the packet count the receiver derives is
// the one the sender cut.
func TestHeaderRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	wide := func() uint64 { return r.Uint64() >> uint(r.Intn(64)) } // every length of uvarint
	for i := 0; i < 20_000; i++ {
		id, seq, totalBytes := wide(), uint32(wide()), wide()%(maxTotalBytes+1)
		if edges := []uint64{0, 1, DataPacketSize, DataPacketSize + 1, maxTotalBytes - DataPacketSize, maxTotalBytes}; i < len(edges) {
			totalBytes = edges[i]
		}
		var sc obs.SpanContext
		if r.Intn(2) == 0 {
			sc = obs.SpanContext{Trace: wide() | 1, Span: wide()}
		}
		ackMe := r.Intn(2) == 0
		payload := make([]byte, r.Intn(DataPacketSize+1))
		r.Read(payload)
		p := appendData(nil, id, seq, totalBytes, sc, ackMe, payload)
		gid, gseq, gtotal, gbytes, gsc, gdata, ok := decodeData(p)
		if gackMe := p[0]&flagAckMe != 0; !ok || gid != id || gseq != seq || gbytes != totalBytes || gsc != sc ||
			gackMe != ackMe || !bytes.Equal(gdata, payload) || !cuts(gtotal, totalBytes) {
			t.Fatalf("data (%d, %d, %d, %v, %v, %d bytes) came back (%d, %d, %d, %v, %v, %d bytes) total %d ok %v",
				id, seq, totalBytes, sc, ackMe, len(payload), gid, gseq, gbytes, gsc, gackMe, len(gdata), gtotal, ok)
		}

		cum, bitmap := uint32(wide()), wide()
		gid, gcum, gbitmap, ok := decodeAck(appendAck(nil, id, cum, bitmap))
		if !ok || gid != id || gcum != cum || gbitmap != bitmap {
			t.Fatalf("ack (%d, %d, %x) came back (%d, %d, %x) ok %v", id, cum, bitmap, gid, gcum, gbitmap, ok)
		}
	}
}

// raw frames tag and then each field as a minimal uvarint, whatever the
// field's range.
func raw(tag byte, fields ...uint64) []byte {
	p := []byte{tag}
	for _, v := range fields {
		p = binary.AppendUvarint(p, v)
	}
	return p
}

// refusedForms are datagrams that read as a value but are not what the
// encoders frame for it, one per rule; decodeData and decodeAck must
// refuse each.
var refusedForms = map[string][]byte{
	"non-minimal id":             {tagData, 0x81, 0x00, 0, 1, 'x'},
	"non-minimal seq":            {tagData, 1, 0x80, 0x00, 1, 'x'},
	"non-minimal totalBytes":     {tagData, 1, 0, 0x81, 0x00, 'x'},
	"traced flag, zero context":  append(raw(tagData|flagTraced, 1, 0, 1), make([]byte, 17)...),
	"traced flag, short context": append(raw(tagData|flagTraced, 1, 0, 1), make([]byte, 15)...),
	"seq above 2^32-1":           append(raw(tagData, 1, 1<<32, 1), 'x'),
	"totalBytes above the limit": append(raw(tagData, 1, 0, maxTotalBytes+1), 'x'),
	"payload above a packet":     append(raw(tagData, 1, 0, 2*DataPacketSize), make([]byte, DataPacketSize+1)...),
	"truncated header":           {tagData, 1, 0x80},
	"ack, trailing byte":         append(raw(tagAck, 2, 1, 0), 0),
	"ack, non-minimal bitmap":    {tagAck, 2, 1, 0x80, 0x00},
	"ack, cum above 2^32-1":      raw(tagAck, 2, 1<<32, 0),
	"ack, truncated":             raw(tagAck, 2, 1),
}

func TestDecodersRefuseNonCanonicalForms(t *testing.T) {
	for name, p := range refusedForms {
		ok := false
		switch p[0] {
		case tagData, tagData | flagTraced:
			_, _, _, _, _, _, ok = decodeData(p)
		case tagAck:
			_, _, _, ok = decodeAck(p)
		}
		if ok {
			t.Errorf("%s: % x accepted", name, p)
		}
	}
}
