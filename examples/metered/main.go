// Metered: the paper's future work, implemented — cost-aware adaptation
// (§8) and difference shipping (§4.1).
//
// A client on a fast but expensive cellular link tells Venus what the
// network costs. The patience model then defers fetches the user could
// easily afford in *time* but not in money, the aging window stretches so
// autosaves cancel before they are paid for, and the edits that do ship
// travel as rsync-style deltas instead of whole files.
//
// Run with: go run ./examples/metered
package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/venus"
	"repro/internal/world"
)

func main() {
	w := world.New(5)
	srv := w.Group(false, "server")
	_, err := srv.CreateVolume("work")
	must(err)
	report := bytes.Repeat([]byte("quarterly figures "), 8000) // ~144 KB
	must(srv.WriteFile("work", "report.doc", report))
	must(srv.WriteFile("work", "dataset.bin", make([]byte, 3<<20))) // 3 MB

	w.Run(func() {
		v := w.Client("phone", srv, venus.Config{
			ClientID:     11,
			AgingWindow:  30 * time.Second,
			EnableDeltas: true,
		})
		must(v.Mount("work"))
		// Warm the report while on the office LAN.
		if _, err := v.ReadFile("/coda/work/report.doc"); err != nil {
			panic(err)
		}

		// Tether to cellular: fast (2 Mb/s) but metered. The user tells
		// Venus: a megabyte feels like five minutes of waiting, and
		// stretch the aging window 10x so edits coalesce before shipping.
		w.Net.SetLink("phone", "server", netsim.WaveLan.Params())
		v.WriteDisconnect()
		v.Connect(2_000_000)
		v.SetNetworkCost(venus.NetworkCost{
			PatienceSecondsPerMB: 300,
			AgingMultiplier:      10,
		})
		fmt.Println("tethered to metered cellular (2 Mb/s)")

		// Time-wise this 3 MB fetch is ~13 seconds; money-wise it is 15
		// patience-minutes. Venus defers it to the user.
		_, err := v.ReadFile("/coda/work/dataset.bin")
		var miss *venus.MissError
		if errors.As(err, &miss) {
			fmt.Printf("dataset.bin deferred: %.0fs of time+cost vs patience %.0fs\n",
				miss.Cost.Seconds(), miss.Threshold.Seconds())
		}

		// The user edits the big report three times; with the stretched
		// aging window only the last survives, and it ships as a delta.
		doc := append([]byte(nil), report...)
		for i := 0; i < 3; i++ {
			copy(doc[1000*(i+1):], []byte(fmt.Sprintf("[rev %d]", i+1)))
			must(v.WriteFile("/coda/work/report.doc", doc))
			w.Sim.Sleep(45 * time.Second)
		}
		w.Sim.Sleep(10 * time.Minute)

		st := v.Stats()
		fmt.Printf("edits propagated: %d delta store(s); %d KB shipped, %d KB avoided by deltas, %d KB by optimizations\n",
			st.DeltaStores, st.ShippedBytes/1024, st.DeltaSavedBytes/1024, v.OptimizedBytes()/1024)
		onServer, _ := srv.Member(0).ReadFile("work", "report.doc")
		fmt.Printf("server copy intact: %v\n", bytes.Equal(onServer, doc))

		// Back in the office: free network, the dataset fetch sails through.
		w.Net.SetLink("phone", "server", netsim.Ethernet.Params())
		v.SetNetworkCost(venus.NetworkCost{})
		v.Connect(10_000_000)
		if data, err := v.ReadFile("/coda/work/dataset.bin"); err == nil {
			fmt.Printf("back on the LAN: dataset.bin fetched (%d MB)\n", len(data)>>20)
		}
	})
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
