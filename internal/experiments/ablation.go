package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/codafs"
	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/trace"
	"repro/internal/venus"
	"repro/internal/world"
)

// AblationResult compares a design choice against its alternative on one
// scalar metric.
type AblationResult struct {
	Name             string
	Metric           string
	Baseline         float64 // the paper's design
	Alternative      float64 // the ablated design
	BaselineLabel    string
	AlternativeLabel string
}

// Render prints the comparison.
func (r AblationResult) Render() string {
	return fmt.Sprintf("Ablation %-18s %-28s %s=%.1f  %s=%.1f\n",
		r.Name, "("+r.Metric+")", r.BaselineLabel, r.Baseline, r.AlternativeLabel, r.Alternative)
}

// AblationAging measures how the aging window affects traffic: shipped
// bytes over a modem replay with A=600s (the default) versus A=0 (ship as
// soon as possible). Without aging, records leave the CML before
// optimizations can cancel them, so more data crosses the slow link.
func AblationAging(opts Options) AblationResult {
	res := AblationResult{
		Name: "aging-window", Metric: "KB shipped over modem",
		BaselineLabel: "A=600s", AlternativeLabel: "A≈0",
	}
	shipped := func(aging time.Duration) float64 {
		st := ablationReplay(opts, venus.Config{
			AgingWindow:          aging,
			PinWriteDisconnected: true,
		}, netsim.Modem)
		return float64(st.ShippedBytes) / 1024
	}
	// AgingWindow 0 means "default" in Config; use 1ns for "no aging".
	res.Baseline = shipped(600 * time.Second)
	res.Alternative = shipped(time.Nanosecond)
	return res
}

// AblationLogOptimizations disables CML cancellations entirely.
func AblationLogOptimizations(opts Options) AblationResult {
	res := AblationResult{
		Name: "log-optimizations", Metric: "KB shipped over modem",
		BaselineLabel: "optimized", AlternativeLabel: "disabled",
	}
	shipped := func(disable bool) float64 {
		st := ablationReplay(opts, venus.Config{
			AgingWindow:          600 * time.Second,
			PinWriteDisconnected: true,
			DisableLogOptimize:   disable,
		}, netsim.Modem)
		return float64(st.ShippedBytes+0) / 1024
	}
	res.Baseline = shipped(false)
	res.Alternative = shipped(true)
	return res
}

// AblationChunkSize compares the adaptive chunk (C sized to ~30 s of
// bandwidth) against fixed tiny and huge chunks, measuring the worst-case
// foreground fetch delay while trickle reintegration saturates a modem.
func AblationChunkSize(opts Options) AblationResult {
	res := AblationResult{
		Name: "chunk-size", Metric: "worst foreground fetch delay (s) at modem",
		BaselineLabel: "C=30s·bw", AlternativeLabel: "C=600s·bw",
	}
	delay := func(chunkSeconds int) float64 {
		w := newWorld(opts.Seed + 31)
		w.mustVol("usr")
		w.mustWrite("usr", "wanted.txt", make([]byte, 4<<10))
		var worst time.Duration
		w.Run(func() {
			v := w.venus("client", venus.Config{
				ClientID:             1,
				AgingWindow:          time.Second,
				ChunkSeconds:         chunkSeconds,
				TrickleInterval:      time.Second,
				PinWriteDisconnected: true,
			})
			if err := v.Mount("usr"); err != nil {
				panic(err)
			}
			// The wanted file is hoarded at high priority so the patience
			// model always permits its fetch; what varies is how long the
			// fetch waits behind reintegration traffic.
			v.HoardAdd("/coda/usr/wanted.txt", 900, false)
			w.setLink("client", netsim.Modem)
			v.Connect(netsim.Modem.Bandwidth)
			// A large pending update saturates the uplink...
			_ = v.WriteFile("/coda/usr/big.out", make([]byte, 400<<10))
			w.Sim.Sleep(30 * time.Second)
			// ...while the user misses on small files now and then. A
			// starved foreground RPC can even time out and demote the
			// client; the recovery time is part of what the user waits.
			for i := 0; i < 10; i++ {
				start := w.Sim.Now()
				for {
					if _, err := v.ReadFile("/coda/usr/wanted.txt"); err == nil {
						break
					}
					if v.State() == venus.Emulating {
						v.Connect(netsim.Modem.Bandwidth)
						v.WriteDisconnect()
					}
					w.Sim.Sleep(5 * time.Second)
				}
				if d := w.Sim.Now().Sub(start); d > worst {
					worst = d
				}
				w.Sim.Sleep(2 * time.Minute)
				// Invalidate so the next read must refetch.
				w.mustWrite("usr", "wanted.txt", make([]byte, 4<<10))
				w.Sim.Sleep(5 * time.Second)
			}
		})
		return seconds(worst)
	}
	// ChunkSeconds 30 (default, C=36KB at modem) vs 600 (C=720KB: the
	// whole backlog in one chunk, starving foreground traffic).
	res.Baseline = delay(30)
	res.Alternative = delay(600)
	return res
}

// AblationVolumeCallbacks is Figure 8's comparison reduced to one number:
// reconnection validation time at modem speed with and without volume
// stamps, for a mid-sized cache.
func AblationVolumeCallbacks(opts Options) AblationResult {
	prof := Fig8Profile{User: "abl", Volumes: 6, Objects: 600, MeanKB: 8}
	if opts.Quick {
		prof.Objects = 200
	}
	res := AblationResult{
		Name: "volume-callbacks", Metric: "modem validation time (s)",
		BaselineLabel: "volume stamps", AlternativeLabel: "per-object",
	}
	timeFor := func(scheme string) float64 {
		cells, _ := fig8Run(opts, prof, scheme)
		for _, c := range cells {
			if c.Network.Name == "Modem" {
				return c.Seconds
			}
		}
		return 0
	}
	res.Baseline = timeFor("volume")
	res.Alternative = timeFor("object")
	return res
}

// AblationAdaptiveRTO compares the Jacobson-adaptive retransmission timer
// against a fixed 3-second timer on a lossy modem link, measuring total
// time for a batch of small RPCs.
func AblationAdaptiveRTO(opts Options) AblationResult {
	res := AblationResult{
		Name: "adaptive-rto", Metric: "60 small RPCs over lossy modem (s)",
		BaselineLabel: "adaptive", AlternativeLabel: "fixed-3s",
	}
	run := func(fixed bool) float64 {
		w := world.New(opts.Seed + 5)
		s, reg := w.Sim, w.Reg
		p := netsim.Modem.Params()
		p.LossRate = 0.05
		w.Net.SetDefaults(p)
		var elapsed time.Duration
		w.Run(func() {
			echo := rpc2.NewNode(s, w.Net.Host("server"), netmon.NewMonitor(s), func(src string, _ obs.SpanContext, b []byte) ([]byte, error) {
				return bytes.Clone(b), nil // the reply is the Node's, body the caller's
			}, reg)
			defer echo.Close()
			c := rpc2.NewNode(s, w.Net.Host("client"), netmon.NewMonitor(s), nil, reg)
			defer c.Close()
			peer := c.Monitor().Peer("server")
			start := s.Now()
			n := 60
			if opts.Quick {
				n = 20
			}
			for i := 0; i < n; i++ {
				if fixed {
					// Erase learned RTT so every call uses InitialRTO.
					peer.Forget()
				}
				// Failures are expected while the link churns; the figure
				// measures elapsed time, not success count.
				_, _ = c.Call("server", []byte{byte(i)}, rpc2.CallOpts{Timeout: 5 * time.Minute, MaxRetries: 20})
			}
			elapsed = s.Now().Sub(start)
		})
		return seconds(elapsed)
	}
	res.Baseline = run(false)
	res.Alternative = run(true)
	return res
}

// ablationReplay runs a short write-heavy replay over the given network
// and returns the venus stats afterwards.
func ablationReplay(opts Options, cfg venus.Config, prof netsim.Profile) venus.Stats {
	p := trace.SegmentPreset("Messiaen", opts.Seed)
	p.Duration = 20 * time.Minute
	p.Updates = 60
	p.RefsPerUpdate = 2
	tr := trace.Generate(p)

	w := newWorld(opts.Seed + 41)
	if err := trace.SeedServer(w.srv, tr); err != nil {
		panic(err)
	}
	cfg.ClientID = 1
	cfg.CacheBytes = 1 << 30
	cfg.TrickleInterval = 2 * time.Second
	var stats venus.Stats
	w.Run(func() {
		v := w.venus("client", cfg)
		if err := v.Mount(tr.Volume); err != nil {
			panic(err)
		}
		v.HoardAdd(codafs.JoinPath(tr.Volume), 600, true)
		if err := v.HoardWalk(); err != nil {
			panic(err)
		}
		v.WriteDisconnect()
		w.setLink("client", prof)
		v.Connect(prof.Bandwidth)
		trace.Replay(w.Sim, v, tr, trace.ReplayOpts{Lambda: time.Second})
		// Let the trickle daemon finish what it can.
		w.Sim.Sleep(10 * time.Minute)
		stats = v.Stats()
	})
	return stats
}
