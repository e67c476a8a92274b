// Hoarding: cache misses, the patience model, and user advice (§4.4).
//
// Over a 9.6 Kb/s modem, a miss on a large file would stall the user for
// many minutes, so Venus defers it and records it instead (Figure 5). The
// user reviews the miss list, hoards what matters, and the next hoard walk
// consults the advisor before fetching anything expensive (Figure 6).
//
// Run with: go run ./examples/hoarding
package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/venus"
	"repro/internal/world"
)

func main() {
	w := world.New(3)
	w.Net.SetDefaults(netsim.Modem.Params())
	srv := w.Group(false, "server")
	_, err := srv.CreateVolume("misc")
	must(err)
	must(srv.WriteFile("misc", "tex/macros/art10.sty", make([]byte, 2_000)))
	must(srv.WriteFile("misc", "emacs/bin/emacs", make([]byte, 2_500_000)))
	must(srv.WriteFile("misc", "weather/latest", make([]byte, 300)))

	w.Run(func() {
		v := w.Client("laptop", srv, venus.Config{
			ClientID:        3,
			DefaultPriority: 100, // unhoarded objects still rate a few seconds
			// Scripted Figure 6 screen: approve pre-approved items only.
			Advisor: venus.FuncAdvisor(func(items []venus.WalkItem) []bool {
				fmt.Println("\n-- data walk approval screen (Figure 6) --")
				out := make([]bool, len(items))
				for i, it := range items {
					verdict := "ask user -> fetch"
					if it.PreApproved {
						verdict = "pre-approved"
					}
					// The user approves everything except multi-minute
					// fetches at priority below 700.
					if !it.PreApproved && it.Priority < 700 && it.Cost > 2*time.Minute {
						verdict = "suppressed by user"
						out[i] = false
					} else {
						out[i] = true
					}
					fmt.Printf("  pri=%-4d cost=%7.1fs  %-34s %s\n",
						it.Priority, it.Cost.Seconds(), it.Path, verdict)
				}
				return out
			}),
		})
		must(v.Mount("misc"))
		v.WriteDisconnect() // weakly connected at 9.6 Kb/s
		v.Connect(9600)

		v.SetProgram("virtex")
		// Small miss: under the patience threshold even at default
		// priority — fetched transparently.
		if _, err := v.ReadFile("/coda/misc/tex/macros/art10.sty"); err != nil {
			panic(err)
		}
		fmt.Println("art10.sty (2 KB): fetched transparently at 9.6 Kb/s")

		// Large miss: ~35 minutes at modem speed — deferred.
		v.SetProgram("csh")
		_, err := v.ReadFile("/coda/misc/emacs/bin/emacs")
		var miss *venus.MissError
		if errors.As(err, &miss) {
			fmt.Printf("emacs (2.5 MB): deferred — est %.0fs exceeds patience %.0fs\n",
				miss.Cost.Seconds(), miss.Threshold.Seconds())
		}

		// The Figure 5 screen: review recorded misses, hoard the one that
		// matters at high priority.
		fmt.Println("\n-- miss review screen (Figure 5) --")
		for _, m := range v.Misses() {
			fmt.Printf("  %-40s referenced by %s\n", m.Path, m.Program)
		}
		v.HoardAdd("/coda/misc/emacs/bin/emacs", 900, false)
		fmt.Println("hoarded emacs at priority 900; fetch deferred to the hoard walk")

		// The walk: priority 900 gives τ ≈ 2.3 hours, so the 35-minute
		// fetch is pre-approved and happens in the background.
		must(v.HoardWalk())
		if data, err := v.ReadFile("/coda/misc/emacs/bin/emacs"); err == nil {
			fmt.Printf("\nafter the walk, emacs is cached locally (%d bytes)\n", len(data))
		}
		st := v.Stats()
		fmt.Printf("misses: %d transparent, %d deferred\n", st.TransparentFetches, st.DeferredMisses)
	})
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
