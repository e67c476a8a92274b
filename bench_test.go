// Package repro's top-level benchmarks regenerate each of the paper's
// tables and figures (in reduced "quick" form — run cmd/codabench for the
// full-scale tables) and report the headline number of each experiment as
// a custom metric. Micro-benchmarks for the core mechanisms follow.
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/andrew"
	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/experiments"
	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/venus"
	"repro/internal/wire"
	"repro/internal/world"
)

func quickOpts(i int) experiments.Options {
	return experiments.Options{Seed: int64(i), Quick: true}
}

// BenchmarkFig1Transport regenerates Figure 1 (SFTP vs TCP throughput).
// Metric: SFTP modem throughput in Kb/s (paper: 6.6).
func BenchmarkFig1Transport(b *testing.B) {
	var modemKbps float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure1(quickOpts(i))
		for _, r := range res.Rows {
			if r.Protocol == "SFTP" && r.Network.Name == "Modem" {
				modemKbps = r.RecvKbps
			}
		}
	}
	b.ReportMetric(modemKbps, "sftp-modem-Kb/s")
}

// BenchmarkFig4Aging regenerates Figure 4 (aging-window study). Metric:
// savings ratio at the default A=600 s on the first trace.
func BenchmarkFig4Aging(b *testing.B) {
	var at600 float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure4(quickOpts(i))
		for _, p := range res.Curves[0].Points {
			if p.A == 600*time.Second {
				at600 = p.Ratio
			}
		}
	}
	b.ReportMetric(at600, "savings-ratio-A600")
}

// BenchmarkFig7Patience regenerates Figure 7 (patience model).
func BenchmarkFig7Patience(b *testing.B) {
	var maxKB float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure7(quickOpts(i))
		maxKB = float64(res.MaxSizes[9600][9]) / 1024 // priority 900 at modem
	}
	b.ReportMetric(maxKB, "tau-size-P900-modem-KB")
}

// BenchmarkFig8Validation regenerates Figure 8 (rapid cache validation).
// Metric: modem speedup of volume stamps over per-object validation.
func BenchmarkFig8Validation(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure8(quickOpts(i))
		var obj, vol float64
		for _, c := range res.Cells {
			if c.User == res.Profiles[0].User && c.Network.Name == "Modem" {
				if c.Scheme == "object" {
					obj = c.Seconds
				} else {
					vol = c.Seconds
				}
			}
		}
		if vol > 0 {
			speedup = obj / vol
		}
	}
	b.ReportMetric(speedup, "modem-speedup-x")
}

// BenchmarkFig9Deployment regenerates Figure 9 (deployment statistics).
// Metric: mean validation success percentage (paper: ~97%).
func BenchmarkFig9Deployment(b *testing.B) {
	var successPct float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure9(quickOpts(i))
		var sum float64
		all := append(append([]experiments.Fig9Row{}, res.Desktops...), res.Laptops...)
		for _, r := range all {
			sum += r.SuccessPct
		}
		successPct = sum / float64(len(all))
	}
	b.ReportMetric(successPct, "validation-success-%")
}

// BenchmarkFig10Compressibility regenerates Figure 10 (compressibility
// histogram). Metric: fraction of segments below 20%.
func BenchmarkFig10Compressibility(b *testing.B) {
	var below20 float64
	for i := 0; i < b.N; i++ {
		below20 = experiments.Figure10(quickOpts(i)).Below20
	}
	b.ReportMetric(below20, "below-20pct-fraction")
}

// BenchmarkFig11Segments regenerates Figure 11 (segment characteristics).
func BenchmarkFig11Segments(b *testing.B) {
	var concord float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure11(experiments.Options{Seed: int64(i)})
		concord = res.Rows[3].Compressibility
	}
	b.ReportMetric(concord*100, "concord-compress-%")
}

// BenchmarkFig12TraceReplay regenerates Figures 12/13/14 (trace replay).
// Metric: modem slowdown relative to Ethernet in percent (paper: ~2%).
func BenchmarkFig12TraceReplay(b *testing.B) {
	var slowdownPct float64
	for i := 0; i < b.N; i++ {
		res := experiments.Figure12(quickOpts(i))
		combo := experiments.Fig12Combo{Lambda: time.Second, Aging: 600 * time.Second}
		var sum float64
		n := 0
		for _, seg := range res.Segments {
			e := res.Cells[combo][seg]["Ethernet"].Mean
			m := res.Cells[combo][seg]["Modem"].Mean
			if e > 0 {
				sum += (m/e - 1) * 100
				n++
			}
		}
		slowdownPct = sum / float64(n)
	}
	b.ReportMetric(slowdownPct, "modem-slowdown-%")
}

// ---- Ablations (design choices called out in DESIGN.md) ----

func BenchmarkAblationNoAging(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationAging(quickOpts(i))
	}
	b.ReportMetric(r.Baseline, "KB-shipped-A600")
	b.ReportMetric(r.Alternative, "KB-shipped-A0")
}

func BenchmarkAblationNoLogOpt(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationLogOptimizations(quickOpts(i))
	}
	b.ReportMetric(r.Baseline, "KB-shipped-opt")
	b.ReportMetric(r.Alternative, "KB-shipped-noopt")
}

func BenchmarkAblationFixedChunk(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationChunkSize(quickOpts(i))
	}
	b.ReportMetric(r.Baseline, "worst-fetch-s-adaptive")
	b.ReportMetric(r.Alternative, "worst-fetch-s-huge-chunk")
}

func BenchmarkAblationNoVolumeCallbacks(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationVolumeCallbacks(quickOpts(i))
	}
	b.ReportMetric(r.Baseline, "validate-s-volume")
	b.ReportMetric(r.Alternative, "validate-s-object")
}

func BenchmarkAblationDeltaShipping(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationDeltas(quickOpts(i))
	}
	b.ReportMetric(r.Baseline, "KB-shipped-deltas")
	b.ReportMetric(r.Alternative, "KB-shipped-full")
}

func BenchmarkAblationFixedRTO(b *testing.B) {
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationAdaptiveRTO(quickOpts(i))
	}
	b.ReportMetric(r.Baseline, "rpcs-s-adaptive")
	b.ReportMetric(r.Alternative, "rpcs-s-fixed")
}

// ---- Micro-benchmarks of the core mechanisms ----

// BenchmarkCMLAppendOptimize measures CML appends under active
// cancellation (repeated stores of the same files).
func BenchmarkCMLAppendOptimize(b *testing.B) {
	log := cml.NewLog()
	t0 := simtime.Epoch1995
	data := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fid := codafs.FID{Volume: 1, Vnode: uint64(i % 64), Unique: 1}
		log.Append(cml.Record{Kind: cml.Store, FID: fid, Data: data, Length: 4096},
			t0.Add(time.Duration(i)*time.Second))
	}
}

// BenchmarkRPC2RoundTrip measures simulated small-RPC round trips on an
// Ethernet profile, including gob encode/decode of a status block.
func BenchmarkRPC2RoundTrip(b *testing.B) {
	w := world.New(1)
	s, net := w.Sim, w.Net
	srv := rpc2.NewNode(s, net.Host("server"), netmon.NewMonitor(s), func(src string, _ obs.SpanContext, body []byte) ([]byte, error) {
		return bytes.Clone(body), nil
	}, nil)
	c := rpc2.NewNode(s, net.Host("client"), netmon.NewMonitor(s), nil, nil)
	body, _ := wire.Encode(wire.GetAttr{FID: codafs.FID{Volume: 1, Vnode: 2, Unique: 3}})
	b.ResetTimer()
	w.Run(func() {
		for i := 0; i < b.N; i++ {
			if _, err := c.Call("server", body, rpc2.CallOpts{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		srv.Close()
		c.Close()
	})
}

// BenchmarkSFTPTransfer1MB measures a simulated 1 MB SFTP transfer over
// Ethernet, end to end.
func BenchmarkSFTPTransfer1MB(b *testing.B) {
	data := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		w := world.New(int64(i))
		s, net := w.Sim, w.Net
		a := rpc2.NewNode(s, net.Host("a"), netmon.NewMonitor(s), nil, nil)
		z := rpc2.NewNode(s, net.Host("z"), netmon.NewMonitor(s), nil, nil)
		w.Run(func() {
			done := simtime.NewQueue[error](s)
			s.Go(func() { done.Put(a.Transfer("z", 1, data)) })
			if _, err := z.AwaitTransfer("a", 1, time.Hour); err != nil {
				b.Fatal(err)
			}
			done.Get()
			a.Close()
			z.Close()
		})
	}
}

// BenchmarkPatienceThreshold measures the patience model evaluation.
func BenchmarkPatienceThreshold(b *testing.B) {
	p := venus.DefaultPatience()
	for i := 0; i < b.N; i++ {
		_ = p.MaxFileSize(i%1000, 9600)
	}
}

// BenchmarkTraceGenerate measures synthetic segment generation.
func BenchmarkTraceGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace.Generate(trace.SegmentPreset("Holst", int64(i)))
	}
}

// BenchmarkVenusCachedRead measures a cache-hit read through Venus.
func BenchmarkVenusCachedRead(b *testing.B) {
	w := world.New(1)
	grp := w.Group(false, "server")
	grp.CreateVolume("usr")
	grp.WriteFile("usr", "f.txt", make([]byte, 4096))
	v := w.Client("client", grp, venus.Config{ClientID: 1})
	w.Run(func() {
		if err := v.Mount("usr"); err != nil {
			b.Fatal(err)
		}
		if _, err := v.ReadFile("/coda/usr/f.txt"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := v.ReadFile("/coda/usr/f.txt"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	})
}

// BenchmarkWireEncodeDecode measures protocol marshalling of a fetch reply.
func BenchmarkWireEncodeDecode(b *testing.B) {
	rep := wire.FetchRep{Object: codafs.Object{
		Status: codafs.Status{FID: codafs.FID{Volume: 1, Vnode: 2, Unique: 3}, Type: codafs.File, Length: 4096},
		Data:   make([]byte, 4096),
	}}
	for i := 0; i < b.N; i++ {
		buf, err := wire.Encode(rep)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAndrewInsensitivity runs the Andrew-benchmark analogue at
// Ethernet and modem speeds and reports the ratio — demonstrating the
// paper's §6.2 argument that this benchmark cannot evaluate trickle
// reintegration (it is insensitive to bandwidth).
func BenchmarkAndrewInsensitivity(b *testing.B) {
	run := func(i int, prof netsim.Profile) time.Duration {
		w := world.New(int64(i))
		grp := w.Group(false, "server")
		grp.CreateVolume("bench")
		var total time.Duration
		w.Run(func() {
			v := w.Client("client", grp, venus.Config{ClientID: 1, PinWriteDisconnected: true})
			if err := v.Mount("bench"); err != nil {
				b.Fatal(err)
			}
			v.WriteDisconnect()
			w.Net.SetLink("client", "server", prof.Params())
			v.Connect(prof.Bandwidth)
			res, err := andrew.Run(w.Sim, v, andrew.Config{Root: "/coda/bench/andrew"})
			if err != nil {
				b.Fatal(err)
			}
			total = res.Total
		})
		return total
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		eth := run(i, netsim.Ethernet)
		modem := run(i, netsim.Modem)
		ratio = float64(modem) / float64(eth)
	}
	b.ReportMetric(ratio, "modem/ethernet-ratio")
}

// BenchmarkServerParallelVolumes measures the payoff of per-volume
// concurrency domains. A bulk writer churns volume v0 with 1 MB stores
// while four clients issue small writes. With vols=1 every client write
// queues behind the bulk copies on the single volume's lock — exactly the
// behaviour of the old whole-server mutex, where it happened regardless
// of volume. With vols=4 the clients' volumes are independent domains and
// their writes complete without waiting for the churn (and, given cores,
// in parallel with it).
func BenchmarkServerParallelVolumes(b *testing.B) {
	const clients = 4
	small := bytes.Repeat([]byte("w"), 4<<10)
	bulk := bytes.Repeat([]byte("B"), 1<<20)
	for _, vols := range []int{1, 4} {
		b.Run(fmt.Sprintf("vols=%d", vols), func(b *testing.B) {
			srv := world.New(1).Group(false, "server").Member(0)
			defer srv.Close()
			for v := 0; v < vols; v++ {
				if _, err := srv.CreateVolume(fmt.Sprintf("v%d", v)); err != nil {
					b.Fatal(err)
				}
			}
			stop := make(chan struct{})
			var churn sync.WaitGroup
			churn.Add(1)
			go func() {
				defer churn.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := srv.WriteFile("v0", "bulk.dat", bulk); err != nil {
						b.Error(err)
						return
					}
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < clients; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						// With one volume everyone shares the churned
						// domain; with several the clients work in the
						// others.
						vol := "v0"
						if vols > 1 {
							vol = fmt.Sprintf("v%d", 1+w%(vols-1))
						}
						name := fmt.Sprintf("client%d.dat", w)
						if _, err := srv.WriteFile(vol, name, small); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			close(stop)
			churn.Wait()
		})
	}
}
