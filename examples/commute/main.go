// Commute: a day in the life of a mobile client, across four orders of
// magnitude of bandwidth.
//
// Office Ethernet → disconnected commute → modem from home → WaveLan in a
// meeting room: the client adapts its state (Figure 2) and its update
// propagation at every step, and the user never waits on the network for
// an update.
//
// Run with: go run ./examples/commute
package main

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/venus"
	"repro/internal/world"
)

func main() {
	w := world.New(2)
	srv := w.Group(false, "server")
	_, err := srv.CreateVolume("proj")
	must(err)
	for i := 0; i < 12; i++ {
		must(srv.WriteFile("proj", fmt.Sprintf("src/venus/fso%d.c", i), make([]byte, 6_000)))
	}

	w.Run(func() {
		v := w.Client("laptop", srv, venus.Config{
			ClientID: 7,
		})
		must(v.Mount("proj"))
		report := func(where string) {
			fmt.Printf("%-22s state=%-19s bw=%8d b/s  CML=%2d records (%5d B)\n",
				where, v.State(), v.LinkBandwidth(), v.CMLRecords(), v.CMLBytes())
		}

		// 09:00, office Ethernet: hoard the sources for the trip.
		v.HoardAdd("/coda/proj/src", 800, true)
		must(v.HoardWalk())
		report("09:00 office (E)")

		// 17:30: pull the plug and catch the train.
		w.Net.SetUp("laptop", "server", false)
		v.Disconnect()
		must(v.WriteFile("/coda/proj/src/venus/fso0.c", []byte("int fso_commute_fix;\n")))
		must(v.WriteFile("/coda/proj/src/venus/fso1.c", []byte("int fso_other_fix;\n")))
		report("17:30 train (off)")

		// 19:00: home, 9.6 Kb/s modem. Reconnection revalidates the whole
		// cache with one RPC; updates trickle out without the user waiting.
		w.Sim.Sleep(90 * time.Minute)
		w.Net.SetLink("laptop", "server", netsim.Modem.Params())
		w.Net.SetUp("laptop", "server", true)
		v.Connect(9600)
		report("19:00 home (M)")
		w.Sim.Sleep(15 * time.Minute) // aging window passes; trickle drains
		report("19:15 home (M)")
		if data, err := srv.Member(0).ReadFile("proj", "src/venus/fso0.c"); err == nil {
			fmt.Printf("%-22s server now has the commute fix: %q\n", "", string(data))
		}

		// 21:00: about to dial down the phone line — force the rest out.
		must(v.WriteFile("/coda/proj/src/venus/fso2.c", []byte("int last_minute;\n")))
		must(v.ForceReintegrate())
		report("21:00 hang up (M)")

		// Next morning, WaveLan in a meeting room: strong enough that the
		// drained client returns to ordinary hoarding (write-through).
		w.Net.SetLink("laptop", "server", netsim.WaveLan.Params())
		v.Connect(2_000_000)
		w.Sim.Sleep(time.Minute)
		report("09:00 meeting (W)")

		st := v.Stats()
		fmt.Printf("\nacross the day: %d reintegration chunks, %d KB shipped, %d validations (%d instant via volume stamps)\n",
			st.Reintegrations, st.ShippedBytes/1024, st.VolValidations, st.VolValidationsOK)
		fmt.Printf("state transitions: %v\n", st.Transitions)
	})
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
