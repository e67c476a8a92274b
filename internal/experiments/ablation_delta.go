package experiments

import (
	"bytes"
	"time"

	"repro/internal/netsim"
	"repro/internal/venus"
)

// AblationDeltas measures the §4.1 future-work enhancement implemented in
// internal/delta: repeated small edits to a large cached document over a
// modem, shipped as full contents (the paper's system) versus rsync-style
// differences.
func AblationDeltas(opts Options) AblationResult {
	edits := 8
	size := 120 << 10
	if opts.Quick {
		edits, size = 4, 60<<10
	}
	base := bytes.Repeat([]byte("quarterly report "), size/17)

	res := AblationResult{
		Name: "delta-shipping", Metric: "KB shipped for edits to a 120KB doc at modem",
		BaselineLabel: "deltas", AlternativeLabel: "full-contents",
	}
	run := func(enable bool) float64 {
		w := newWorld(opts.Seed + 71)
		w.mustVol("usr")
		w.mustWrite("usr", "report.doc", base)
		var shippedKB float64
		w.Run(func() {
			v := w.venus("client", venus.Config{
				ClientID:             1,
				AgingWindow:          2 * time.Second,
				TrickleInterval:      2 * time.Second,
				PinWriteDisconnected: true,
				EnableDeltas:         enable,
			})
			if err := v.Mount("usr"); err != nil {
				panic(err)
			}
			if _, err := v.ReadFile("/coda/usr/report.doc"); err != nil {
				panic(err)
			}
			w.setLink("client", netsim.Modem)
			v.Connect(netsim.Modem.Bandwidth)

			doc := append([]byte(nil), base...)
			for e := 0; e < edits; e++ {
				copy(doc[(e*13577)%(len(doc)-16):], []byte("[edited pass]"))
				if err := v.WriteFile("/coda/usr/report.doc", doc); err != nil {
					panic(err)
				}
				// Let each edit age out and ship before the next, so
				// every edit crosses the wire (no store-store cancel).
				w.Sim.Sleep(4 * time.Minute)
			}
			shippedKB = float64(v.Stats().ShippedBytes) / 1024
		})
		return shippedKB
	}
	res.Baseline = run(true)
	res.Alternative = run(false)
	return res
}
