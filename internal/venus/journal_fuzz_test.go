package venus

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/wire"
)

// FuzzJournalDecode: a WAL payload that survived its frame CRC but is
// not a journal entry must fail recovery with an error wrapping
// wire.ErrMalformed, never a panic, and an accepted payload is the
// canonical framing of the entry it decoded to.
func FuzzJournalDecode(f *testing.F) {
	now := time.Unix(800000000, 5).UTC()
	for _, e := range []journalEntry{
		{LSN: 1, Op: jAppend, Volume: "usr", Now: now, Rec: cml.Record{
			Kind: cml.Store, FID: codafs.FID{Volume: 3, Vnode: 2, Unique: 2}, Data: []byte("contents"), Length: 8}},
		{LSN: 2, Op: jDrop, Volume: "usr", Seqs: []uint64{1, 2, 900}},
		{LSN: 3, Op: jHoardAdd, HDB: HDBEntry{Path: "/coda/usr/src", Priority: 600, Children: true}},
		{LSN: 4, Op: jHoardAdd, HDB: HDBEntry{Path: "/coda/usr/tmp", Priority: -1}},
		{LSN: 5, Op: jHoardRemove, Path: "/coda/usr/src"},
	} {
		e := e
		f.Add(appendJournalEntry(nil, &e))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 9})
	f.Add([]byte{1, byte(jDrop), 0, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := decodeJournalEntry(payload)
		if err != nil {
			if !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("error %v does not wrap ErrMalformed", err)
			}
			return
		}
		if again := appendJournalEntry(nil, &e); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload is not canonical:\n in %x\nout %x", payload, again)
		}
	})
}
