// Command tracegen generates synthetic file-reference traces, reports
// their statistics (the Figure 11 columns), and can replay the trace
// against a simulated client/server world at a chosen network speed
// (§6.2.1's methodology as a standalone tool). A trace is a pure function
// of the flags that describe it, so there is no trace file: -replay
// regenerates what the same flags would report on.
//
// Usage:
//
//	tracegen -preset Purcell|Holst|Messiaen|Concord|ives|... [-seed N]
//	tracegen -updates 500 -refs 60 -rewrite 2.5 -writekb 10 -duration 45m
//	tracegen -preset Concord -replay -network modem -lambda 1s -agingwindow 600s
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/codafs"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/venus"
	"repro/internal/world"
)

func main() {
	preset := flag.String("preset", "", "named preset (segment: Purcell/Holst/Messiaen/Concord; week: ives/concord/holst/messiaen/purcell)")
	seed := flag.Int64("seed", 0, "generator seed")
	updates := flag.Int("updates", 500, "target update count (custom mode)")
	refs := flag.Int("refs", 60, "references per update (custom mode)")
	rewrite := flag.Float64("rewrite", 1.5, "mean rewrites per episode (custom mode)")
	writeKB := flag.Float64("writekb", 8, "mean store size in KB (custom mode)")
	duration := flag.Duration("duration", 45*time.Minute, "trace span (custom mode)")
	aging := flag.Duration("aging", -1, "also analyze with this aging window (e.g. 600s)")
	replay := flag.Bool("replay", false, "replay the trace against a simulated world instead of reporting its statistics")
	network := flag.String("network", "ethernet", "network for -replay: ethernet|wavelan|isdn|modem")
	lambda := flag.Duration("lambda", time.Second, "think threshold λ for -replay")
	agingWindow := flag.Duration("agingwindow", 600*time.Second, "aging window A for -replay")
	flag.Parse()

	var p trace.GenParams
	switch *preset {
	case "":
		p = trace.GenParams{
			Name: "custom", Seed: *seed, Duration: *duration,
			Updates: *updates, RefsPerUpdate: *refs,
			RewriteMean: *rewrite, MeanWriteKB: *writeKB,
		}
	case "Purcell", "Holst", "Messiaen", "Concord":
		p = trace.SegmentPreset(*preset, *seed)
	case "ives", "concord", "holst", "messiaen", "purcell":
		p = trace.WeekPreset(*preset, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown preset %q\n", *preset)
		os.Exit(1)
	}

	tr := trace.Generate(p)
	if *replay {
		if err := replayTrace(tr, *network, *lambda, *agingWindow); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	nrefs, nupdates := tr.Counts()
	an := trace.AnalyzeCML(tr, trace.NoAging)
	fmt.Printf("trace %q: %d records over %v\n", tr.Name, len(tr.Records), tr.Duration().Round(time.Second))
	fmt.Printf("  references:      %d\n", nrefs)
	fmt.Printf("  updates:         %d\n", nupdates)
	fmt.Printf("  unopt. CML:      %d KB\n", an.AppendedBytes/1024)
	fmt.Printf("  opt. CML:        %d KB\n", (an.AppendedBytes-an.SavedBytes)/1024)
	fmt.Printf("  compressibility: %.0f%%\n", an.Compressibility()*100)
	if *aging >= 0 {
		aw := trace.AnalyzeCML(tr, *aging)
		fmt.Printf("  with A=%v: saved %d KB (%.0f%% of no-aging savings)\n",
			*aging, aw.SavedBytes/1024, 100*float64(aw.SavedBytes)/float64(an.SavedBytes))
	}
}

// replayTrace replays tr on a write-disconnected simulated client at the
// named network speed, reporting elapsed time and CML statistics — one
// cell of Figure 12, from the command line.
func replayTrace(tr *trace.Trace, network string, lambda, aging time.Duration) error {
	var prof netsim.Profile
	switch strings.ToLower(network) {
	case "ethernet", "e":
		prof = netsim.Ethernet
	case "wavelan", "w":
		prof = netsim.WaveLan
	case "isdn", "i":
		prof = netsim.ISDN
	case "modem", "m":
		prof = netsim.Modem
	default:
		return fmt.Errorf("unknown network %q", network)
	}

	w := world.New(1)
	grp := w.Group(false, "server")
	if err := trace.SeedServer(grp.Member(0), tr); err != nil {
		return err
	}
	var stats trace.ReplayStats
	var begin, end, optimized, shipped int64
	w.Run(func() {
		v := w.Client("client", grp, venus.Config{
			ClientID:             1,
			CacheBytes:           1 << 30,
			AgingWindow:          aging,
			PinWriteDisconnected: true,
		})
		if err := v.Mount(tr.Volume); err != nil {
			panic(err)
		}
		v.HoardAdd(codafs.JoinPath(tr.Volume), 600, true)
		if err := v.HoardWalk(); err != nil {
			panic(err)
		}
		v.WriteDisconnect()
		w.Net.SetLink("client", "server", prof.Params())
		v.Connect(prof.Bandwidth)

		begin = v.CMLBytes()
		stats = trace.Replay(w.Sim, v, tr, trace.ReplayOpts{Lambda: lambda, OpCost: 3 * time.Millisecond})
		end = v.CMLBytes()
		optimized = v.OptimizedBytes()
		shipped = v.Stats().ShippedBytes
	})

	fmt.Printf("replayed %q on %s (λ=%v, A=%v)\n", tr.Name, prof.Name, lambda, aging)
	fmt.Printf("  elapsed:    %v (%d ops, %d updates, %d misses, %d errors)\n",
		stats.Elapsed.Round(time.Second), stats.Ops, stats.Updates, stats.CacheMisses, stats.Errors)
	fmt.Printf("  CML:        begin %d KB, end %d KB\n", begin/1024, end/1024)
	fmt.Printf("  shipped:    %d KB\n", shipped/1024)
	fmt.Printf("  optimized:  %d KB\n", optimized/1024)
	return nil
}
