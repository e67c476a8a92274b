package venus_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/crashfs"
	"repro/internal/venus"
	"repro/internal/wire"
)

// TestVenusCheckpointCrashSafety pins the checkpoint discipline: a power
// cut at any write of a Checkpoint leaves the old snapshot or the new
// one, never a torn mixture, and the CML record journaled since the old
// one still replays over it — once, and not at all over the new one.
func TestVenusCheckpointCrashSafety(t *testing.T) {
	run := func(crashAt int) (cerr error, records int, info venus.RecoveryInfo) {
		w := newWorld(t)
		w.seed("usr", map[string]string{"doc": "server copy"})
		mem := crashfs.NewMem()
		w.sim.Run(func() {
			v1 := w.venus("c1", venus.Config{ClientID: 3, AgingWindow: time.Hour})
			mustMount(t, v1, "usr")
			if _, err := v1.ReadFile("/coda/usr/doc"); err != nil {
				t.Fatal(err)
			}
			w.net.SetUp("c1", "server", false)
			v1.Disconnect()
			if _, err := v1.AttachJournal(venusJournalOpts(mem)); err != nil {
				t.Fatal(err)
			}
			if err := v1.WriteFile("/coda/usr/doc", []byte("first edit")); err != nil {
				t.Fatal(err)
			}
			if err := v1.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := v1.Mkdir("/coda/usr/second"); err != nil { // the WAL suffix
				t.Fatal(err)
			}
			if crashAt > 0 {
				mem.ArmCrash(crashAt, 0)
			}
			cerr = v1.Checkpoint()
			mem.Reboot()
			v1.Close()
			w.net.SetUp("c1", "server", true)

			v2 := w.venus("c1b", venus.Config{ClientID: 3, AgingWindow: time.Hour})
			mustMount(t, v2, "usr")
			var err error
			if info, err = v2.AttachJournal(venusJournalOpts(mem)); err != nil {
				t.Fatalf("recovery after a cut at checkpoint write %d: %v", crashAt, err)
			}
			records = v2.CMLRecords()
			if data, err := v2.ReadFile("/coda/usr/doc"); err != nil || string(data) != "first edit" {
				t.Errorf("cut at checkpoint write %d: restored doc = %q, %v", crashAt, data, err)
			}
			v2.Close()
		})
		return cerr, records, info
	}
	old, fresh := 0, 0
	for k := 1; ; k++ {
		cerr, records, info := run(k)
		if !info.SnapshotLoaded || records != 2 {
			t.Errorf("cut at checkpoint write %d: snapshot loaded %v, %d CML records, want both edits exactly once",
				k, info.SnapshotLoaded, records)
		}
		if info.EntriesReplayed == 1 {
			old++
		} else {
			fresh++
		}
		if cerr == nil {
			break // the cut landed beyond the checkpoint's last write
		}
	}
	if old == 0 || fresh == 0 {
		t.Errorf("sweep saw the old snapshot %d times and the new one %d times; want both", old, fresh)
	}
}

// TestVenusLoadStateCorrupted: a truncated, bit-flipped or rule-breaking
// state image must come back as an error wrapping wire.ErrMalformed,
// never a panic, and must install nothing.
func TestVenusLoadStateCorrupted(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", map[string]string{"doc": "x"})
	w.seed("zoo", nil)
	w.sim.Run(func() {
		v1 := w.venus("c1", venus.Config{ClientID: 8, AgingWindow: time.Hour})
		mustMount(t, v1, "usr")
		if _, err := v1.ReadFile("/coda/usr/doc"); err != nil {
			t.Fatal(err)
		}
		w.net.SetUp("c1", "server", false)
		v1.Disconnect()
		if err := v1.WriteFile("/coda/usr/doc", []byte("edited")); err != nil {
			t.Fatal(err)
		}
		v1.HoardAdd("/coda/usr/doc", 500, false)
		var buf bytes.Buffer
		if err := v1.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		img := buf.Bytes()
		v1.Close()
		w.net.SetUp("c1", "server", true)

		v := w.venus("victim", venus.Config{ClientID: 8, AgingWindow: time.Hour})
		mustMount(t, v, "usr")
		mustMount(t, v, "zoo")
		defer v.Close()
		rejected := func(name string, bad []byte) {
			t.Helper()
			if err := v.LoadState(bytes.NewReader(bad)); !errors.Is(err, wire.ErrMalformed) {
				t.Errorf("%s: LoadState = %v, want an error wrapping ErrMalformed", name, err)
			}
			if len(v.HoardList()) != 0 || v.CMLRecords() != 0 {
				t.Fatalf("%s: rejected image installed %d HDB rows, %d CML records", name, len(v.HoardList()), v.CMLRecords())
			}
		}
		for n := 0; n < len(img); n++ {
			rejected(fmt.Sprintf("%d/%d-byte prefix", n, len(img)), img[:n])
		}

		// Well-framed images that break a rule of the layout, framed by
		// hand so they can say what the encoder cannot.
		type hdb struct {
			path string
			prio uint64
		}
		type vol struct {
			name    string
			nextSeq uint64
			seqs    []uint64
		}
		raw := func(rows []hdb, vols []vol) []byte {
			b := append([]byte("CODV\x01"), 0) // magic, version, journal LSN
			b = wire.AppendUvarint(b, uint64(len(rows)))
			for _, r := range rows {
				b = wire.AppendBool(wire.AppendUvarint(wire.AppendString(b, r.path), r.prio), false)
			}
			b = wire.AppendUvarint(b, uint64(len(vols)))
			for _, vl := range vols {
				recs := make([]cml.Record, len(vl.seqs))
				for i, seq := range vl.seqs {
					recs[i] = cml.Record{Seq: seq, Kind: cml.Store, Name: "f"}
				}
				b = wire.AppendUvarint(wire.AppendString(b, vl.name), vl.nextSeq)
				b = wire.AppendBool(append(b, 0, 0), true) // saved bytes, saved records, optimize
				b = wire.AppendRecords(b, recs)
			}
			return b
		}
		gobImage, err := os.ReadFile("testdata/parent_gob_onevol_nologs.image")
		if err != nil {
			t.Fatal(err)
		}
		for name, bad := range map[string][]byte{
			// One volume name, zero logs: the shape that indexed past the
			// end of Logs at the parent commit. The layout cannot say it.
			"parent-format gob image, count mismatch": gobImage,
			"wrong magic":               append([]byte("CODS"), img[4:]...),
			"wrong version":             append([]byte("CODV\x02"), img[5:]...),
			"trailing byte":             append(append([]byte(nil), img...), 0),
			"volume count too large":    append(raw(nil, nil)[:7], 3),
			"duplicate HDB path":        raw([]hdb{{"/coda/usr/a", 1}, {"/coda/usr/a", 2}}, nil),
			"descending HDB paths":      raw([]hdb{{"/coda/usr/b", 1}, {"/coda/usr/a", 1}}, nil),
			"duplicate volume name":     raw(nil, []vol{{"usr", 0, nil}, {"usr", 0, nil}}),
			"descending volume names":   raw(nil, []vol{{"zoo", 0, nil}, {"usr", 0, nil}}),
			"duplicate CML sequence":    raw(nil, []vol{{"usr", 5, []uint64{2, 2}}}),
			"descending CML sequences":  raw(nil, []vol{{"usr", 5, []uint64{3, 2}}}),
			"CML sequence past NextSeq": raw(nil, []vol{{"usr", 5, []uint64{2, 6}}}),
		} {
			rejected(name, bad)
		}
		// Half of a well-formed image is not enough to install the other
		// half: the HDB row must not land when a later volume is unknown.
		if err := v.LoadState(bytes.NewReader(raw([]hdb{{"/coda/usr/a", 1}}, []vol{{"nope", 0, nil}}))); err == nil {
			t.Error("LoadState accepted CML for an unmounted volume")
		}
		if n := len(v.HoardList()); n != 0 {
			t.Errorf("failed LoadState left %d HDB rows installed", n)
		}
		if err := v.LoadState(bytes.NewReader(raw([]hdb{{"/coda/usr/a", 1}}, []vol{{"usr", 5, []uint64{2, 4}}, {"zoo", 0, nil}}))); err != nil {
			t.Fatalf("the table's well-formed image is rejected: %v", err)
		}

		// Flipped bytes must never panic; a flip that still decodes, or
		// that renames the volume to one not mounted, is fine.
		for off := 0; off < len(img); off++ {
			bad := append([]byte(nil), img...)
			bad[off] ^= 0x5a
			_ = v.LoadState(bytes.NewReader(bad))
		}
	})
}
