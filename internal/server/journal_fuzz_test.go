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
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/wire"
)

var (
	metaSample = metaEntry{LSN: 1, Name: "usr", ID: 3, ModTime: time.Unix(800000000, 5).UTC()}
	volSample  = volEntry{LSN: 7, Client: "laptop", Recs: []cml.Record{
		{Seq: 1, Kind: cml.Store, FID: codafs.FID{Volume: 3, Vnode: 2, Unique: 2}, Data: []byte("contents"), Length: 8},
		{Seq: 2, Kind: cml.Rename, FID: codafs.FID{Volume: 3, Vnode: 2, Unique: 2}, Name: "a", NewName: "b"},
	}}
)

// walker is a journal entry: metaEntry or volEntry.
type walker interface{ walk(*wire.Coder) }

// encodeEntry and decodeEntry frame one WAL payload as the journal does.
func encodeEntry(e walker) []byte {
	c := wire.NewEncoder(nil)
	e.walk(&c)
	return c.Bytes()
}

func decodeEntry(e walker, payload []byte) error {
	c := wire.NewDecoder(payload)
	e.walk(&c)
	return c.Done()
}

// TestJournalBytesGolden pins the meta-WAL and volume-WAL payloads byte
// for byte — a change strands every journal on disk and breaks the
// replication chain between versions — and decodes the pinned bytes
// back to the entries. Regenerate with:
// go test ./internal/server -run Golden -update
func TestJournalBytesGolden(t *testing.T) {
	const path = "testdata/golden/journal.golden"
	meta, vol := encodeEntry(&metaSample), encodeEntry(&volSample)
	got := fmt.Sprintf("meta\t%s\nvol\t%s\n", hex.EncodeToString(meta), hex.EncodeToString(vol))
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
	lines := strings.Split(strings.TrimSpace(string(want)), "\n")
	payload := func(i int) []byte {
		_, h, _ := strings.Cut(lines[i], "\t")
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var me metaEntry
	if err := decodeEntry(&me, payload(0)); err != nil || me != metaSample {
		t.Errorf("meta line decodes to %+v, %v; want %+v", me, err, metaSample)
	}
	var ve volEntry
	if err := decodeEntry(&ve, payload(1)); err != nil || !reflect.DeepEqual(ve, volSample) {
		t.Errorf("vol line decodes to %+v, %v; want %+v", ve, err, volSample)
	}
}

// FuzzJournalDecode: a WAL payload that survived its frame CRC but is
// not a journal entry (a foreign or damaged log) must fail recovery with
// an error wrapping wire.ErrMalformed, never a panic; and a payload
// either decoder accepts is the canonical framing of the entry it
// decoded to — the property the replication chain fingerprint rests on.
func FuzzJournalDecode(f *testing.F) {
	f.Add(encodeEntry(&metaSample))
	f.Add(encodeEntry(&volSample))
	f.Add(encodeEntry(&volEntry{LSN: 8}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var me metaEntry
		if err := decodeEntry(&me, payload); err == nil {
			if again := encodeEntry(&me); !bytes.Equal(again, payload) {
				t.Fatalf("meta entry not canonical:\n in %x\nout %x", payload, again)
			}
		} else if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("meta entry error %v does not wrap ErrMalformed", err)
		}
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
