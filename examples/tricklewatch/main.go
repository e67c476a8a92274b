// Tricklewatch: the mechanics of trickle reintegration made visible
// (§4.3, Figure 3).
//
// A write-disconnected client on a modem performs a burst of updates,
// including repeated rewrites (cancelled by log optimizations while inside
// the aging window) and one large file (shipped as resumable fragments of
// chunk size C = 30 s of bandwidth). The CML is sampled every 30 simulated
// seconds.
//
// Run with: go run ./examples/tricklewatch
package main

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/venus"
	"repro/internal/world"
)

func main() {
	w := world.New(4)
	w.Net.SetDefaults(netsim.Modem.Params())
	srv := w.Group(false, "server")
	_, err := srv.CreateVolume("usr")
	must(err)

	w.Run(func() {
		v := w.Client("laptop", srv, venus.Config{
			ClientID:        5,
			AgingWindow:     60 * time.Second,
			TrickleInterval: 5 * time.Second,
		})
		must(v.Mount("usr"))
		v.WriteDisconnect()
		v.Connect(9600)

		fmt.Println("time   CML-records  CML-bytes  shipped-KB  optimized-B  note")
		start := w.Sim.Now()
		sample := func(note string) {
			st := v.Stats()
			fmt.Printf("%5.0fs  %6d     %8d   %6d      %8d    %s\n",
				w.Sim.Now().Sub(start).Seconds(), v.CMLRecords(), v.CMLBytes(),
				st.ShippedBytes/1024, v.OptimizedBytes(), note)
		}

		// An editor autosaving the same buffer: only the last store will
		// survive the aging window.
		for i := 0; i < 4; i++ {
			must(v.WriteFile("/coda/usr/draft.txt", make([]byte, 8_000)))
			sample(fmt.Sprintf("autosave #%d of draft.txt (8 KB)", i+1))
			w.Sim.Sleep(10 * time.Second)
		}

		// One large artifact: bigger than C = 36 KB at 9.6 Kb/s, so it
		// will cross the link as a series of resumable fragments.
		must(v.WriteFile("/coda/usr/build.tar", make([]byte, 150_000)))
		sample("wrote build.tar (150 KB > C=36 KB)")

		// Watch the trickle daemon work: after the 60-second aging window,
		// chunks leave one at a time, ~30 s of line time each.
		for i := 0; i < 10; i++ {
			w.Sim.Sleep(30 * time.Second)
			sample("")
		}

		// The moral: the CML drained without the user ever blocking, and
		// three of the four autosaves never crossed the modem.
		onServer, err := srv.Member(0).ReadFile("usr", "build.tar")
		must(err)
		fmt.Printf("\nserver received build.tar intact: %d bytes\n", len(onServer))
		st := v.Stats()
		fmt.Printf("shipped %d KB in %d chunks; optimizations cancelled %d KB before shipping\n",
			st.ShippedBytes/1024, st.Reintegrations, v.OptimizedBytes()/1024)
	})
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
