// Command codabench regenerates the paper's tables and figures on the
// simulated substrate and prints them in the paper's layout.
//
// Usage:
//
//	codabench [-fig 1,4,7,8,9,10,11,12,repl] [-ablations] [-quick] [-seed N] [-trials N] [-o out.txt] [-trace out.trace.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -fig selects figures (default all); Figure 12 includes Figures 13 and 14,
// and "repl" is the replication overhead/failover experiment (not a paper
// figure).
// -quick runs reduced workloads (for smoke testing); the full run matches
// the scales recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/profile"
)

// renderable is what every figure and ablation result satisfies.
type renderable interface{ Render() string }

// traceExporter is satisfied by results that captured a Perfetto span
// export (currently Figure 12's first replay).
type traceExporter interface{ TraceExport() []byte }

func main() {
	figs := flag.String("fig", "1,4,7,8,9,10,11,12,repl", "comma-separated figure numbers to run")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablations")
	quick := flag.Bool("quick", false, "reduced workloads")
	seed := flag.Int64("seed", 0, "random seed")
	trials := flag.Int("trials", 0, "trials per cell (0 = paper's default of 5)")
	out := flag.String("o", "", "also write output to this file")
	traceOut := flag.String("trace", "", "write a Perfetto (Chrome trace-event) span export to this file (needs a figure that records one, e.g. 12)")
	prof := profile.AddFlags(flag.CommandLine)
	flag.Parse()

	stopProfile, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opts := experiments.Options{Seed: *seed, Trials: *trials, Quick: *quick}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	selected := make(map[string]bool)
	for _, f := range strings.Split(*figs, ",") {
		selected[strings.TrimSpace(f)] = true
	}

	var traceData []byte
	run := func(fig string, fn func() renderable) {
		if !selected[fig] {
			return
		}
		start := time.Now()
		fmt.Fprintf(w, "==== Figure %s ====\n", fig)
		res := fn()
		fmt.Fprint(w, res.Render())
		fmt.Fprintf(w, "(completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if traceData == nil {
			if te, ok := res.(traceExporter); ok {
				traceData = te.TraceExport()
			}
		}
	}

	run("1", func() renderable { return experiments.Figure1(opts) })
	run("4", func() renderable { return experiments.Figure4(opts) })
	run("7", func() renderable { return experiments.Figure7(opts) })
	run("8", func() renderable { return experiments.Figure8(opts) })
	run("9", func() renderable { return experiments.Figure9(opts) })
	run("10", func() renderable { return experiments.Figure10(opts) })
	run("11", func() renderable { return experiments.Figure11(opts) })
	run("12", func() renderable { return experiments.Figure12(opts) })
	run("repl", func() renderable { return experiments.FigureRepl(opts) })

	if *ablations {
		fmt.Fprintln(w, "==== Ablations ====")
		for _, fn := range []func(experiments.Options) experiments.AblationResult{
			experiments.AblationAging,
			experiments.AblationLogOptimizations,
			experiments.AblationChunkSize,
			experiments.AblationVolumeCallbacks,
			experiments.AblationAdaptiveRTO,
			experiments.AblationDeltas,
		} {
			fmt.Fprint(w, fn(opts).Render())
		}
	}

	if err := stopProfile(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *traceOut != "" {
		if traceData == nil {
			fmt.Fprintln(os.Stderr, "codabench: -trace: no selected figure records a span export (run -fig 12)")
			os.Exit(1)
		}
		if err := os.WriteFile(*traceOut, traceData, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
