package experiments

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/codafs"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/venus"
)

// Fig12Combo names one (λ, A) parameter table of Figure 12.
type Fig12Combo struct {
	Lambda time.Duration
	Aging  time.Duration
}

// Fig12Combos lists the paper's four parameter combinations in its order:
// (a) λ=1s A=300s, (b) λ=1s A=600s, (c) λ=10s A=300s, (d) λ=10s A=600s.
var Fig12Combos = []Fig12Combo{
	{time.Second, 300 * time.Second},
	{time.Second, 600 * time.Second},
	{10 * time.Second, 300 * time.Second},
	{10 * time.Second, 600 * time.Second},
}

// Fig12Cell is one table entry: elapsed replay time in seconds, mean (sd).
type Fig12Cell struct {
	Mean float64
	SD   float64
}

// Fig14Cell carries the data-generation measurements of Figure 14 for one
// (segment, network) pair: KB in the CML at the start and end of the
// measurement period, KB shipped, KB saved by optimizations.
type Fig14Cell struct {
	BeginKB, EndKB, ShippedKB, ShippedSD, OptimizedKB float64
}

// Fig12Result reproduces Figures 12/13 (trace replay elapsed times) and 14
// (data generated during replay, for λ=1s A=600s).
type Fig12Result struct {
	ObsSnapshots
	Segments []string
	Networks []netsim.Profile
	Trials   int
	// Cells[combo][segment][network.Name]
	Cells map[Fig12Combo]map[string]map[string]Fig12Cell
	// Fig14[segment][network.Name], from the λ=1s A=600s runs.
	Fig14 map[string]map[string]Fig14Cell
	// Trace is the Perfetto span export of the first run (first combo,
	// segment, network; trial 0): the codabench -trace payload.
	Trace []byte
}

// TraceExport surfaces the captured Perfetto trace to codabench -trace.
func (r Fig12Result) TraceExport() []byte { return r.Trace }

// fig12Run is one replay: a segment on a network under (λ, A).
type fig12Run struct {
	segment string
	network netsim.Profile
	combo   Fig12Combo
	trial   int
}

type fig12Out struct {
	fig12Run
	elapsed  float64
	beginKB  float64
	endKB    float64
	shipped  float64
	optimzed float64
	dump     []byte // registry dump, captured for trial 0 only
	trace    []byte // Perfetto span export, captured alongside dump
}

// replayOpCost models local per-operation client work.
const replayOpCost = 3 * time.Millisecond

// Figure12 runs the full trace-replay matrix. Venus is forced to remain
// write-disconnected at all bandwidths, and measurement starts after a
// 10-minute warming period, exactly as in §6.2.2.
func Figure12(opts Options) Fig12Result {
	opts.fill()
	segments := trace.SegmentNames
	trials := opts.Trials
	combos := Fig12Combos
	scale := 1.0
	if opts.Quick {
		segments = []string{"Purcell", "Concord"}
		trials = 1
		combos = []Fig12Combo{{time.Second, 600 * time.Second}}
		scale = 0.25
	}
	res := Fig12Result{
		Segments: segments,
		Networks: netsim.StandardNetworks,
		Trials:   trials,
		Cells:    make(map[Fig12Combo]map[string]map[string]Fig12Cell),
		Fig14:    make(map[string]map[string]Fig14Cell),
	}

	var runs []fig12Run
	for _, combo := range combos {
		for _, seg := range segments {
			for _, net := range res.Networks {
				for tr := 0; tr < trials; tr++ {
					runs = append(runs, fig12Run{segment: seg, network: net, combo: combo, trial: tr})
				}
			}
		}
	}

	// Each run owns an independent simulation; spread them over real CPUs.
	outs := make([]fig12Out, len(runs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, r := range runs {
		i, r := i, r
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			outs[i] = fig12One(opts.Seed, r, scale)
		}()
	}
	wg.Wait()

	// Runs execute concurrently but outs is indexed by the deterministic
	// run order, so the snapshot list is stable across invocations.
	for _, o := range outs {
		if o.dump == nil {
			continue
		}
		label := fmt.Sprintf("%s/%s/lambda=%v/A=%v", o.segment, o.network.Name, o.combo.Lambda, o.combo.Aging)
		res.Snapshots = append(res.Snapshots, RegistrySnapshot{Label: label, Dump: o.dump, traceSum: sha256.Sum256(o.trace)})
		if res.Trace == nil {
			res.Trace = o.trace
		}
	}

	// Aggregate trials.
	type key struct {
		combo   Fig12Combo
		seg, nw string
	}
	elapsed := make(map[key][]float64)
	shipped := make(map[key][]float64)
	type f14acc struct {
		begin, end, opt []float64
	}
	f14 := make(map[key]*f14acc)
	for _, o := range outs {
		k := key{o.combo, o.segment, o.network.Name}
		elapsed[k] = append(elapsed[k], o.elapsed)
		shipped[k] = append(shipped[k], o.shipped)
		a := f14[k]
		if a == nil {
			a = &f14acc{}
			f14[k] = a
		}
		a.begin = append(a.begin, o.beginKB)
		a.end = append(a.end, o.endKB)
		a.opt = append(a.opt, o.optimzed)
	}
	for k, xs := range elapsed {
		byCombo := res.Cells[k.combo]
		if byCombo == nil {
			byCombo = make(map[string]map[string]Fig12Cell)
			res.Cells[k.combo] = byCombo
		}
		bySeg := byCombo[k.seg]
		if bySeg == nil {
			bySeg = make(map[string]Fig12Cell)
			byCombo[k.seg] = bySeg
		}
		m, sd := meanStd(xs)
		bySeg[k.nw] = Fig12Cell{Mean: m, SD: sd}

		if (k.combo == Fig12Combo{time.Second, 600 * time.Second}) {
			byNet := res.Fig14[k.seg]
			if byNet == nil {
				byNet = make(map[string]Fig14Cell)
				res.Fig14[k.seg] = byNet
			}
			a := f14[k]
			bm, _ := meanStd(a.begin)
			em, _ := meanStd(a.end)
			sm, ssd := meanStd(shipped[k])
			om, _ := meanStd(a.opt)
			byNet[k.nw] = Fig14Cell{BeginKB: bm, EndKB: em, ShippedKB: sm, ShippedSD: ssd, OptimizedKB: om}
		}
	}
	return res
}

// fig12One executes a single replay run.
func fig12One(seed int64, r fig12Run, scale float64) fig12Out {
	const warm = 10 * time.Minute
	p := trace.SegmentPreset(r.segment, seed+int64(r.trial)*17)
	// Extend the segment so a 10-minute warming prefix precedes the
	// 45-minute measured portion, preserving the activity rate.
	full := p.Duration + warm
	p.Updates = int(float64(p.Updates) * float64(full) / float64(p.Duration) * scale)
	p.RefsPerUpdate = int(float64(p.RefsPerUpdate) * scale)
	if p.RefsPerUpdate < 1 {
		p.RefsPerUpdate = 1
	}
	p.Duration = full
	tr := trace.Generate(p)
	warmTrace := tr.Slice(0, warm)
	measured := tr.Slice(warm, full+time.Minute)

	w := newWorld(seed + int64(r.trial))
	if err := trace.SeedServer(w.srv, tr); err != nil {
		panic(err)
	}

	out := fig12Out{fig12Run: r}
	w.Run(func() {
		v := w.venus("client", venus.Config{
			ClientID:             1,
			CacheBytes:           1 << 30,
			AgingWindow:          r.combo.Aging,
			PinWriteDisconnected: true,
		})
		if err := v.Mount(tr.Volume); err != nil {
			panic(err)
		}
		// Warm the cache at full speed so replay misses do not confound
		// the measurement, then drop to the experiment's network.
		v.HoardAdd(codafs.JoinPath(tr.Volume), 600, true)
		if err := v.HoardWalk(); err != nil {
			panic(err)
		}
		v.WriteDisconnect()
		w.setLink("client", r.network)
		v.Connect(r.network.Bandwidth)

		ropts := trace.ReplayOpts{Lambda: r.combo.Lambda, OpCost: replayOpCost}
		trace.Replay(w.Sim, v, warmTrace, ropts)

		begin := v.CMLBytes()
		ship0 := v.Stats().ShippedBytes
		opt0 := v.OptimizedBytes()
		start := w.Sim.Now()
		trace.Replay(w.Sim, v, measured, ropts)
		out.elapsed = seconds(w.Sim.Now().Sub(start))
		out.beginKB = float64(begin) / 1024
		out.endKB = float64(v.CMLBytes()) / 1024
		out.shipped = float64(v.Stats().ShippedBytes-ship0) / 1024
		out.optimzed = float64(v.OptimizedBytes()-opt0) / 1024
		if r.trial != 0 {
			return
		}
		// Critical-path attribution over the run's traced reintegrations:
		// exclusive self-time per bucket, exported as gauges so
		// TestFigure12Insulation pins the breakdown alongside the wire
		// counters.
		cp := w.Reg.CriticalPath("venus_reintegrate")
		w.Reg.Gauge("experiments_fig12_critpath_patience_wait_us").Set(cp["patience_wait"].Microseconds())
		w.Reg.Gauge("experiments_fig12_critpath_retransmit_us").Set(cp["retransmit"].Microseconds())
		w.Reg.Gauge("experiments_fig12_critpath_fragment_serialization_us").Set(cp["fragment_serialization"].Microseconds())
		w.Reg.Gauge("experiments_fig12_critpath_fsync_us").Set(cp["fsync"].Microseconds())
		w.Reg.Gauge("experiments_fig12_critpath_failover_us").Set(cp["failover"].Microseconds())
		w.Reg.Gauge("experiments_fig12_critpath_server_apply_us").Set(cp["server_apply"].Microseconds())
		w.Reg.Gauge("experiments_fig12_critpath_other_us").Set(cp["other"].Microseconds())
		out.dump = w.Reg.Dump()
		out.trace = w.Reg.ExportTrace()
	})
	return out
}

// Render prints the four elapsed-time tables (Figure 12) and the data
// tables (Figure 14).
func (r Fig12Result) Render() string {
	out := ""
	for _, combo := range Fig12Combos {
		byCombo := r.Cells[combo]
		if byCombo == nil {
			continue
		}
		out += fmt.Sprintf("Figure 12: Trace replay elapsed time (s), λ=%v, A=%v (%d trials)\n",
			combo.Lambda, combo.Aging, r.Trials)
		t := newTable(12, 16, 16, 16, 16)
		t.row("Segment", "Ethernet", "WaveLan", "ISDN", "Modem")
		t.line()
		for _, seg := range r.Segments {
			row := []string{seg}
			for _, nw := range r.Networks {
				c := byCombo[seg][nw.Name]
				row = append(row, fmt.Sprintf("%.0f (%.0f)", c.Mean, c.SD))
			}
			t.row(row...)
		}
		out += t.String() + "\n"
	}

	if len(r.Fig14) > 0 {
		out += "Figure 14: Data generated during trace replay (λ=1s, A=600s)\n"
		for _, seg := range r.Segments {
			byNet := r.Fig14[seg]
			if byNet == nil {
				continue
			}
			out += fmt.Sprintf("  Segment = %s\n", seg)
			t := newTable(12, 14, 14, 18, 14)
			t.row("  Network", "Begin CML(KB)", "End CML(KB)", "Shipped(KB)", "Optimized(KB)")
			t.line()
			for _, nw := range r.Networks {
				c := byNet[nw.Name]
				t.row("  "+nw.Name,
					fmt.Sprintf("%.0f", c.BeginKB),
					fmt.Sprintf("%.0f", c.EndKB),
					fmt.Sprintf("%.0f (%.0f)", c.ShippedKB, c.ShippedSD),
					fmt.Sprintf("%.0f", c.OptimizedKB))
			}
			out += t.String()
		}
	}
	return out
}
