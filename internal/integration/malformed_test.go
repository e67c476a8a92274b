package integration

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/venus"
	"repro/internal/wire"
)

// TestServerSurvivesGarbageDatagrams sprays random bytes at a live server
// while a real client works; nothing may panic, and the client's traffic
// must keep flowing.
func TestServerSurvivesGarbageDatagrams(t *testing.T) {
	w := newWorld(50)
	w.srv.CreateVolume("usr")
	w.srv.WriteFile("usr", "f", []byte("payload"))
	rng := rand.New(rand.NewSource(50))

	w.Run(func() {
		attacker := w.Net.Host("attacker")
		w.Sim.Go(func() {
			for i := 0; i < 500; i++ {
				n := rng.Intn(300)
				junk := make([]byte, n)
				rng.Read(junk)
				// Valid-looking kind bytes with garbage bodies, plus
				// pure noise.
				if n > 0 && i%3 == 0 {
					junk[0] = byte(1 + rng.Intn(6))
				}
				attacker.Send("server", junk)
				w.Sim.Sleep(50 * time.Millisecond)
			}
		})

		v := w.venus("c", 1, venus.Config{})
		if err := v.Mount("usr"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := v.ReadFile("/coda/usr/f"); err != nil {
				t.Fatalf("read %d failed during garbage spray: %v", i, err)
			}
			if err := v.WriteFile("/coda/usr/g", []byte{byte(i)}); err != nil {
				t.Fatalf("write %d failed during garbage spray: %v", i, err)
			}
			w.Sim.Sleep(time.Second)
		}
	})
}

// TestWireDecodeNeverPanics throws noise, truncations and single-byte
// corruptions at the wire decoder: every input either decodes or is
// refused with an error wrapping wire.ErrMalformed, which is what lets
// the RPC layer drop the packet and carry on.
func TestWireDecodeNeverPanics(t *testing.T) {
	check := func(buf []byte) {
		t.Helper()
		if _, err := wire.Decode(buf); err != nil && !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("Decode(%x): error %v does not wrap ErrMalformed", buf, err)
		}
	}
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(200))
		rng.Read(buf)
		if len(buf) > 0 && i%2 == 0 {
			buf[0] = byte(1 + rng.Intn(34)) // a real message tag over a garbage body
		}
		check(buf)
	}
	valid, err := wire.Encode(wire.Reintegrate{Volume: 1, Records: []cml.Record{{
		Seq: 1, Kind: cml.Store, FID: codafs.FID{Volume: 1, Vnode: 2, Unique: 3},
		Name: "f", Owner: "c", Data: []byte("payload"), Length: 7,
	}}, Fragments: map[int]uint64{0: 9}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(valid); cut++ {
		check(valid[:cut])
	}
	for at := range valid {
		for _, b := range []byte{0x00, 0x7f, 0x80, 0xff} {
			mangled := append([]byte(nil), valid...)
			mangled[at] = b
			check(mangled)
		}
	}
}

// TestClientSurvivesGarbageFromServerAddress: junk arriving at the client
// from the address it trusts must not corrupt its state machine.
func TestClientSurvivesGarbageFromServerAddress(t *testing.T) {
	w := newWorld(52)
	w.srv.CreateVolume("usr")
	w.srv.WriteFile("usr", "f", []byte("x"))
	rng := rand.New(rand.NewSource(52))

	w.Run(func() {
		v := w.venus("c", 1, venus.Config{})
		if err := v.Mount("usr"); err != nil {
			t.Fatal(err)
		}
		// Inject junk that arrives with the server's source address (an
		// on-path spoofer); netsim hands back the server's own endpoint
		// for its name, which is exactly what we need here.
		evil := w.Net.Host("server")
		for i := 0; i < 200; i++ {
			junk := make([]byte, rng.Intn(100))
			rng.Read(junk)
			if len(junk) > 0 {
				junk[0] = byte(1 + rng.Intn(6))
			}
			evil.Send("c", junk)
		}
		w.Sim.Sleep(time.Second)
		if _, err := v.ReadFile("/coda/usr/f"); err != nil {
			t.Fatalf("client wedged by junk: %v", err)
		}
		if v.State() != venus.Hoarding {
			t.Errorf("junk changed client state to %v", v.State())
		}
	})
}
