package venus

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/cml"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// FuzzLoadState: whatever is in the state file, LoadState on a client
// with the image's volumes mounted returns nil or an error wrapping
// wire.ErrMalformed and never panics, cache reconstruction from the
// restored records included. An accepted image is canonical: saving the
// state it restored, with the watermark it carried, reproduces the input.
func FuzzLoadState(f *testing.F) {
	golden, err := os.ReadFile("testdata/golden/venus.image")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, n := range []int{0, 4, 5, 8, len(golden) / 2, len(golden) - 1} {
		f.Add(golden[:n])
	}
	gobImage, err := os.ReadFile("testdata/parent_gob_onevol_nologs.image")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gobImage)

	// One client for the whole run, emptied before each input: a client
	// per input would leave its daemons parked on a clock nobody
	// advances, thousands of times a second.
	sim := simtime.NewSim(simtime.Epoch1995)
	v := New(sim, netsim.New(sim, 1).Host("fuzz"), Config{Server: "server", ClientID: 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeImage(data)
		v.mu.Lock()
		v.state = Hoarding
		v.hdb = make(map[string]*HDBEntry)
		v.cache = newCache(v.cfg.CacheBytes)
		v.volumes = make(map[string]*vclient)
		for name := range img.logs {
			v.volumes[name] = &vclient{log: cml.NewLog()}
		}
		v.mu.Unlock()
		lerr := v.LoadState(bytes.NewReader(data))
		if (err == nil) != (lerr == nil) {
			t.Fatalf("decodeImage = %v but LoadState = %v", err, lerr)
		}
		if err != nil {
			if !errors.Is(lerr, wire.ErrMalformed) {
				t.Fatalf("error %v does not wrap ErrMalformed", lerr)
			}
			return
		}
		if again := v.image(img.lsn); !bytes.Equal(again, data) {
			t.Fatalf("accepted image is not canonical:\n in %x\nout %x", data, again)
		}
	})
}
