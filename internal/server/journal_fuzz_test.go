package server

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
// not a journal entry (a foreign or damaged log) must fail recovery with
// an error wrapping wire.ErrMalformed, never a panic; and a payload
// either decoder accepts is the canonical framing of the entry it
// decoded to — the property the replication chain fingerprint rests on.
func FuzzJournalDecode(f *testing.F) {
	f.Add(appendMetaEntry(nil, metaEntry{LSN: 1, Name: "usr", ID: 3, ModTime: time.Unix(800000000, 5).UTC()}))
	f.Add(appendVolEntry(nil, 7, "laptop", []cml.Record{
		{Seq: 1, Kind: cml.Store, FID: codafs.FID{Volume: 3, Vnode: 2, Unique: 2}, Data: []byte("contents"), Length: 8},
		{Seq: 2, Kind: cml.Rename, FID: codafs.FID{Volume: 3, Vnode: 2, Unique: 2}, Name: "a", NewName: "b"},
	}))
	f.Add(appendVolEntry(nil, 8, "", nil))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if e, err := decodeMetaEntry(payload); err == nil {
			if again := appendMetaEntry(nil, e); !bytes.Equal(again, payload) {
				t.Fatalf("meta entry not canonical:\n in %x\nout %x", payload, again)
			}
		} else if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("meta entry error %v does not wrap ErrMalformed", err)
		}
		if e, err := decodeVolEntry(payload); err == nil {
			if again := appendVolEntry(nil, e.LSN, e.Client, e.Recs); !bytes.Equal(again, payload) {
				t.Fatalf("volume entry not canonical:\n in %x\nout %x", payload, again)
			}
		} else if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("volume entry error %v does not wrap ErrMalformed", err)
		}
	})
}
