package venus

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
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

// encodeEntry and decodeEntry frame one WAL payload as the journal does.
func encodeEntry(e *journalEntry) []byte {
	c := wire.NewEncoder(nil)
	e.walk(&c)
	return c.Bytes()
}

func decodeEntry(payload []byte) (journalEntry, error) {
	var e journalEntry
	c := wire.NewDecoder(payload)
	e.walk(&c)
	return e, c.Done()
}

// journalSamples holds one entry of each op, and a negative priority.
func journalSamples() []journalEntry {
	now := time.Unix(800000000, 5).UTC()
	return []journalEntry{
		{LSN: 1, Op: jAppend, Volume: "usr", Now: now, Rec: cml.Record{
			Kind: cml.Store, FID: codafs.FID{Volume: 3, Vnode: 2, Unique: 2}, Data: []byte("contents"), Length: 8}},
		{LSN: 2, Op: jDrop, Volume: "usr", Seqs: []uint64{1, 2, 900}},
		{LSN: 3, Op: jHoardAdd, HDB: HDBEntry{Path: "/coda/usr/src", Priority: 600, Children: true}},
		{LSN: 4, Op: jHoardAdd, HDB: HDBEntry{Path: "/coda/usr/tmp", Priority: -1}},
		{LSN: 5, Op: jHoardRemove, Path: "/coda/usr/src"},
	}
}

// TestJournalBytesGolden pins the WAL payload of every journal op byte
// for byte — a change strands every journal on disk — and decodes the
// pinned bytes back to the entry. Regenerate with:
// go test ./internal/venus -run Golden -update
func TestJournalBytesGolden(t *testing.T) {
	const path = "testdata/golden/journal.golden"
	var b strings.Builder
	samples := journalSamples()
	for i := range samples {
		fmt.Fprintf(&b, "%d\t%s\n", samples[i].Op, hex.EncodeToString(encodeEntry(&samples[i])))
	}
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if b.String() != string(want) {
		t.Fatalf("payloads differ from %s:\n got %s\nwant %s", path, b.String(), want)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		_, h, _ := strings.Cut(line, "\t")
		payload, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if e, err := decodeEntry(payload); err != nil || !reflect.DeepEqual(e, samples[i]) {
			t.Errorf("line %d decodes to %+v, %v; want %+v", i+1, e, err, samples[i])
		}
	}
}

// FuzzJournalDecode: a WAL payload that survived its frame CRC but is
// not a journal entry must fail recovery with an error wrapping
// wire.ErrMalformed, never a panic, and an accepted payload is the
// canonical framing of the entry it decoded to.
func FuzzJournalDecode(f *testing.F) {
	for _, e := range journalSamples() {
		e := e
		f.Add(encodeEntry(&e))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 9})
	f.Add([]byte{1, byte(jDrop), 0, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := decodeEntry(payload)
		if err != nil {
			if !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("error %v does not wrap ErrMalformed", err)
			}
			return
		}
		if again := encodeEntry(&e); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload is not canonical:\n in %x\nout %x", payload, again)
		}
	})
}
