package server

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/wire"
)

var volSample = volEntry{LSN: 7, Client: "laptop", Recs: []cml.Record{
	{Seq: 1, Kind: cml.Store, FID: codafs.FID{Volume: 3, Vnode: 2, Unique: 2}, Data: []byte("contents"), Length: 8},
	{Seq: 2, Kind: cml.Rename, FID: codafs.FID{Volume: 3, Vnode: 2, Unique: 2}, Name: "a", NewName: "b"},
}}

// encodeEntry and decodeEntry frame one WAL payload as the journal does.
func encodeEntry(e *volEntry) []byte {
	c := wire.NewEncoder(nil)
	e.walk(&c)
	return c.Bytes()
}

func decodeEntry(e *volEntry, payload []byte) error {
	c := wire.NewDecoder(payload)
	e.walk(&c)
	return c.Done()
}

// TestJournalBytesGolden pins the volume-WAL payload byte for byte — a
// change strands every journal on disk and breaks the replication chain
// between versions — and decodes the pinned bytes back to the entry. Regenerate with:
// go test ./internal/server -run Golden -update
func TestJournalBytesGolden(t *testing.T) {
	const path = "testdata/golden/journal.golden"
	got := fmt.Sprintf("vol\t%s\n", hex.EncodeToString(encodeEntry(&volSample)))
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("payloads differ from %s:\n got %s\nwant %s", path, got, want)
	}
	_, h, _ := strings.Cut(strings.TrimSpace(string(want)), "\t")
	payload, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	var ve volEntry
	if err := decodeEntry(&ve, payload); err != nil || !reflect.DeepEqual(ve, volSample) {
		t.Errorf("vol line decodes to %+v, %v; want %+v", ve, err, volSample)
	}
}

// FuzzJournalDecode: a WAL payload that survived its frame CRC but is
// not a journal entry (a foreign or damaged log) must fail recovery with
// an error wrapping wire.ErrMalformed, never a panic; and a payload the
// decoder accepts is the canonical framing of the entry it decoded to —
// the property the replication chain fingerprint rests on.
func FuzzJournalDecode(f *testing.F) {
	// A volume-creation entry of the retired meta WAL ("usr", volume 3):
	// a foreign log the volume decoder must refuse or re-encode exactly.
	f.Add([]byte{0x01, 0x03, 'u', 's', 'r', 0x03, 0x80, 0xa0, 0xf8, 0xfa, 0x05, 0x05})
	f.Add(encodeEntry(&volSample))
	f.Add(encodeEntry(&volEntry{LSN: 8}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var ve volEntry
		if err := decodeEntry(&ve, payload); err == nil {
			if again := encodeEntry(&ve); !bytes.Equal(again, payload) {
				t.Fatalf("volume entry not canonical:\n in %x\nout %x", payload, again)
			}
		} else if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("volume entry error %v does not wrap ErrMalformed", err)
		}
	})
}
