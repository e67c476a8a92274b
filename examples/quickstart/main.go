// Quickstart: a complete disconnected-operation round trip in one process.
//
// A simulated server and client are wired through the network emulator.
// The client works connected, disconnects, keeps working against its cache
// (updates go to the client modify log), reconnects, and trickle
// reintegration propagates everything back — the core §2/§4.3 life cycle.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"repro/internal/venus"
	"repro/internal/world"
)

func main() {
	w := world.New(1)
	srv := w.Group(false, "server")
	_, err := srv.CreateVolume("usr")
	must(err)
	must(srv.WriteFile("usr", "papers/s15/s15.tex", []byte("\\title{Exploiting Weak Connectivity}\n")))

	w.Run(func() {
		v := w.Client("laptop", srv, venus.Config{
			ClientID:    1,
			AgingWindow: 30 * time.Second, // short, so the demo is brisk
		})
		must(v.Mount("usr"))

		// Connected (hoarding state): reads fetch through the cache,
		// writes go through to the server.
		data, err := v.ReadFile("/coda/usr/papers/s15/s15.tex")
		must(err)
		fmt.Printf("[%s] read %d bytes of the paper draft\n", v.State(), len(data))
		must(v.WriteFile("/coda/usr/papers/s15/notes.txt", []byte("reviewer comments\n")))
		onServer, _ := srv.Member(0).ReadFile("usr", "papers/s15/notes.txt")
		fmt.Printf("[%s] write-through: server already has %q\n", v.State(), onServer)

		// A hoard walk caches volume version stamps, which is what makes
		// revalidation after the disconnection a single RPC (§4.2.1).
		must(v.HoardWalk())

		// The airport: no network. Cached data stays usable; updates are
		// logged in the CML, where log optimizations cancel rewrites.
		w.Net.SetUp("laptop", "server", false)
		v.Disconnect()
		fmt.Printf("\n[%s] disconnected; editing offline\n", v.State())
		for i := 1; i <= 3; i++ {
			body := fmt.Sprintf("\\title{Exploiting Weak Connectivity}\n%% draft %d\n", i)
			must(v.WriteFile("/coda/usr/papers/s15/s15.tex", []byte(body)))
		}
		must(v.Mkdir("/coda/usr/papers/s15/figures"))
		must(v.WriteFile("/coda/usr/papers/s15/figures/fig2.eps", make([]byte, 20_000)))
		fmt.Printf("[%s] CML: %d records, %d bytes (%d bytes cancelled by optimizations)\n",
			v.State(), v.CMLRecords(), v.CMLBytes(), v.OptimizedBytes())

		// Reconnection: a single batched RPC revalidates the whole cache
		// via volume stamps, then trickle reintegration drains the CML in
		// the background once records pass the aging window.
		w.Net.SetUp("laptop", "server", true)
		v.Connect(10_000_000)
		st := v.Stats()
		fmt.Printf("\n[%s] reconnected; rapid validation: %d volume(s) checked, %d object validations avoided\n",
			v.State(), st.VolValidations, st.ObjsSavedByVolume)

		w.Sim.Sleep(2 * time.Minute) // aging window + trickle interval
		final, _ := srv.Member(0).ReadFile("usr", "papers/s15/s15.tex")
		fmt.Printf("[%s] after trickle reintegration the server has draft: %q\n", v.State(), lastLine(final))
		fmt.Printf("[%s] CML now %d records; shipped %d KB in %d chunk(s)\n",
			v.State(), v.CMLRecords(), v.Stats().ShippedBytes/1024, v.Stats().Reintegrations)
	})
}

func lastLine(b []byte) string {
	s := string(b)
	for i := len(s) - 2; i >= 0; i-- {
		if s[i] == '\n' {
			return s[i+1:]
		}
	}
	return s
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
