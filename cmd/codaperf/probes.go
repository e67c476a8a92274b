package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/bufpool"
	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/crashfs"
	"repro/internal/group"
	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/venus"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Probes time one layer's public functions in isolation, tracing off.
// Each builds its nodes the way bench_test.go and the packages' own
// bench_test.go files do, so the signatures used here are the API surface
// the benchmark pins (README, "Pinned API surface").

// probeRun collects probe results. batches is how many timed batches a
// sample takes the median of (21 in a real run, 1 in the smoke test).
type probeRun struct {
	batches int
	metrics map[string]float64
}

// sample stores the median of batches calls to fn under name.
func (p *probeRun) sample(name string, fn func() float64) {
	fn() // warm caches, pools and lazily built state
	xs := make([]float64, p.batches)
	for i := range xs {
		xs[i] = fn()
	}
	p.metrics[name] = median(xs)
}

// time stores the median wall nanoseconds per op of batch, which does n.
func (p *probeRun) time(name string, n int, batch func()) {
	p.sample(name, func() float64 {
		t0 := time.Now()
		batch()
		return float64(time.Since(t0)) / float64(n)
	})
}

// allocs stores the heap allocations per op of batch, which does n.
func (p *probeRun) allocs(name string, n int, batch func()) {
	p.sample(name, func() float64 { return mallocsDuring(batch) / float64(n) })
}

func mallocsDuring(fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

func probeFail(layer string, err error) {
	if err != nil {
		panic(fmt.Sprintf("codaperf: %s probe: %v", layer, err))
	}
}

// ethernet is a fresh simulated LAN.
func ethernet(seed int64) (*simtime.Sim, *netsim.Network) {
	sim := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(sim, seed)
	net.SetDefaults(netsim.Ethernet.Params())
	return sim, net
}

// runProbes runs every probe and returns one value per probeMetrics name.
func runProbes(batches int) map[string]float64 {
	p := &probeRun{batches: batches, metrics: make(map[string]float64)}
	for _, probe := range []func(*probeRun){
		probeSimtime, probeNetsim, probeWire, probeRPC2, probeSFTP, probeCML, probeVenus,
		probeServer, probeWAL, probeCrashfs, probeGroup, probeTrace, probeObs, probeBufpool,
	} {
		probe(p)
	}
	return p.metrics
}

func probeSimtime(p *probeRun) {
	const n = 2000
	sim := simtime.NewSim(simtime.Epoch1995)
	sim.Run(func() {
		p.time("simtime.sleep_ns", n, func() {
			for i := 0; i < n; i++ {
				sim.Sleep(time.Millisecond)
			}
		})

		ping, pong := simtime.NewQueue[int](sim), simtime.NewQueue[int](sim)
		sim.Go(func() {
			for {
				v, ok := ping.Get()
				if !ok {
					return
				}
				pong.Put(v)
			}
		})
		p.time("simtime.handoff_ns", 2*n, func() {
			for i := 0; i < n; i++ {
				ping.Put(i)
				pong.Get()
			}
		})
		ping.Close()

		empty := simtime.NewQueue[int](sim)
		p.time("simtime.timeout_ns", n, func() {
			for i := 0; i < n; i++ {
				empty.GetTimeout(time.Millisecond)
			}
		})
	})
}

func probeNetsim(p *probeRun) {
	const n = 2000
	sim, net := ethernet(1)
	a, b := net.Host("a"), net.Host("b")
	payload := make([]byte, 1024)
	sim.Run(func() {
		p.time("netsim.pkt_ns", n, func() {
			for i := 0; i < n; i++ {
				probeFail("netsim", a.Send("b", payload))
				b.Recv()
			}
		})
	})
}

// reint32 is a Reintegrate request of 32 mixed records: 8 creates, 16
// 1 KB stores, 8 renames. payload is the file data it carries.
func reint32() (req wire.Reintegrate, payload int) {
	dir := codafs.FID{Volume: 1, Vnode: 1, Unique: 1}
	for i := 0; i < 32; i++ {
		fid := codafs.FID{Volume: 1, Vnode: uint64(10 + i/4), Unique: uint64(10 + i/4)}
		name := fmt.Sprintf("file%02d.dat", i/4)
		rec := cml.Record{Seq: uint64(i + 1), Time: simtime.Epoch1995, FID: fid, Parent: dir, Name: name,
			ModTime: simtime.Epoch1995, Owner: "client"}
		switch i % 4 {
		case 0:
			rec.Kind = cml.Create
		case 1, 2:
			rec.Kind, rec.Data, rec.Length = cml.Store, make([]byte, 1024), 1024
			payload += 1024
		case 3:
			rec.Kind, rec.NewParent, rec.NewName = cml.Rename, dir, "renamed-"+name
		}
		req.Records = append(req.Records, rec)
	}
	req.Volume = 1
	return req, payload
}

func probeWire(p *probeRun) {
	const n = 100
	fetch := wire.FetchRep{Object: codafs.Object{
		Status: codafs.Status{FID: codafs.FID{Volume: 1, Vnode: 2, Unique: 3}, Type: codafs.File, Length: 4096},
		Data:   make([]byte, 4096),
	}}
	reint, reintPayload := reint32()
	for _, c := range []struct {
		name    string
		msg     any
		payload int
	}{{"wire.fetchrep4k", fetch, 4096}, {"wire.reint32", reint, reintPayload}} {
		buf, err := wire.Encode(c.msg)
		probeFail("wire", err)
		p.metrics[c.name+"_overhead_bytes"] = float64(len(buf) - c.payload)
		p.time(c.name+"_encode_ns", n, func() {
			for i := 0; i < n; i++ {
				_, err := wire.Encode(c.msg)
				probeFail("wire", err)
			}
		})
		p.time(c.name+"_decode_ns", n, func() {
			for i := 0; i < n; i++ {
				_, err := wire.Decode(buf)
				probeFail("wire", err)
			}
		})
		p.allocs(c.name+"_allocs", n, func() {
			for i := 0; i < n; i++ {
				b, err := wire.Encode(c.msg)
				probeFail("wire", err)
				_, err = wire.Decode(b)
				probeFail("wire", err)
			}
		})
	}
}

func probeRPC2(p *probeRun) {
	const n = 500
	sim, net := ethernet(1)
	echo := func(src string, _ obs.SpanContext, body []byte) ([]byte, error) { return body, nil }
	srv := rpc2.NewNode(sim, net.Host("server"), netmon.NewMonitor(sim), echo, nil)
	c := rpc2.NewNode(sim, net.Host("client"), netmon.NewMonitor(sim), nil, nil)
	body, err := wire.Encode(wire.GetAttr{FID: codafs.FID{Volume: 1, Vnode: 2, Unique: 3}})
	probeFail("rpc2", err)
	calls := func() {
		for i := 0; i < n; i++ {
			_, err := c.Call("server", body, rpc2.CallOpts{})
			probeFail("rpc2", err)
		}
	}
	linkBytes := func() int64 {
		return net.StatsBetween("client", "server").BytesSent + net.StatsBetween("server", "client").BytesSent
	}
	sim.Run(func() {
		p.time("rpc2.call_ns", n, calls)
		p.allocs("rpc2.call_allocs", n, calls)
		b0 := linkBytes()
		calls()
		p.metrics["rpc2.call_overhead_bytes"] = float64(linkBytes()-b0)/n - float64(2*len(body))
		c.Close()
		srv.Close()
		sim.Sleep(teardownSleep)
	})
}

func probeSFTP(p *probeRun) {
	const mb = 1 << 20
	sim, net := ethernet(1)
	a := rpc2.NewNode(sim, net.Host("a"), netmon.NewMonitor(sim), nil, nil)
	z := rpc2.NewNode(sim, net.Host("z"), netmon.NewMonitor(sim), nil, nil)
	data := make([]byte, mb)
	var id uint64
	transfer := func(from, to *rpc2.Node, data []byte) {
		id++
		xfer := id
		done := simtime.NewQueue[error](sim)
		sim.Go(func() { done.Put(from.Transfer(to.Addr(), xfer, data)) })
		_, err := to.AwaitTransfer(from.Addr(), xfer, 24*time.Hour)
		probeFail("sftp", err)
		err, _ = done.Get()
		probeFail("sftp", err)
	}
	sim.Run(func() {
		p.sample("sftp.mb_per_s", func() float64 {
			t0 := time.Now()
			transfer(a, z, data)
			return 1 / time.Since(t0).Seconds()
		})
		p.allocs("sftp.allocs_per_mb", 1, func() { transfer(a, z, data) })

		// 256 KB over the modem profile: how much of the nominal 9.6 kb/s
		// the protocol turns into payload. Pure sim time, so exact.
		const size = 256 << 10
		net.SetLink("a", "z", netsim.Modem.Params())
		start := sim.Now()
		transfer(a, z, data[:size])
		elapsed := sim.Now().Sub(start).Seconds()
		p.metrics["sftp.modem_efficiency_pct"] = 100 * size * 8 / (elapsed * float64(netsim.Modem.Bandwidth))
		a.Close()
		z.Close()
		sim.Sleep(teardownSleep)
	})
}

func probeCML(p *probeRun) {
	const n = 2000
	t0 := simtime.Epoch1995
	data := make([]byte, 4096)
	log := cml.NewLog()
	seq := 0
	p.time("cml.append_ns", n, func() {
		for i := 0; i < n; i++ {
			fid := codafs.FID{Volume: 1, Vnode: uint64(seq % 64), Unique: 1}
			log.Append(cml.Record{Kind: cml.Store, FID: fid, Data: data, Length: 4096},
				t0.Add(time.Duration(seq)*time.Second))
			seq++
		}
	})

	// 2 048 1 KB stores drained in 36 KB chunks (the modem chunk size):
	// the log is filled outside the timer, the chunk cycle is timed.
	kb := make([]byte, 1024)
	p.sample("cml.chunk_ns", func() float64 {
		l := cml.NewLog()
		for i := 0; i < 2048; i++ {
			l.Append(cml.Record{Kind: cml.Store, FID: codafs.FID{Volume: 1, Vnode: uint64(i + 2), Unique: 1},
				Name: "f", Data: kb, Length: 1024}, t0)
		}
		later := t0.Add(time.Hour)
		chunks := 0
		start := time.Now()
		for l.BeginReintegration(time.Minute, 36<<10, later) != nil {
			l.CommitReintegration()
			chunks++
		}
		return float64(time.Since(start)) / float64(chunks)
	})
}

func probeVenus(p *probeRun) {
	const n = 2000
	sim, net := ethernet(1)
	srv := server.New(sim, net.Host("server"))
	_, err := srv.CreateVolume("usr")
	probeFail("venus", err)
	_, err = srv.WriteFile("usr", "f.txt", make([]byte, 4096))
	probeFail("venus", err)
	data := make([]byte, 4096)
	sim.Run(func() {
		v := venus.New(sim, net.Host("client"), venus.Config{Server: "server", ClientID: 1})
		probeFail("venus", v.Mount("usr"))
		read := func() {
			for i := 0; i < n; i++ {
				_, err := v.ReadFile("/coda/usr/f.txt")
				probeFail("venus", err)
			}
		}
		p.time("venus.hit_read_ns", n, read)
		p.allocs("venus.hit_read_allocs", n, read)
		p.time("venus.hit_stat_ns", n, func() {
			for i := 0; i < n; i++ {
				_, err := v.Stat("/coda/usr/f.txt")
				probeFail("venus", err)
			}
		})

		// Emulating: every write is a CML append; cycling over 64 files
		// keeps store-overwrite cancellation live and the log bounded.
		v.Disconnect()
		const writes = 100
		seq := 0
		write := func() {
			for i := 0; i < writes; i++ {
				probeFail("venus", v.WriteFile(fmt.Sprintf("/coda/usr/w%02d.dat", seq%64), data))
				seq++
			}
		}
		p.time("venus.disc_write_ns", writes, write)
		_, err := v.AttachJournal(venus.JournalOptions{FS: crashfs.NewMem(), Dir: "vj", Policy: wal.SyncEachRecord})
		probeFail("venus", err)
		p.time("venus.disc_write_journaled_ns", writes, write)

		v.Close()
		srv.Close()
		sim.Sleep(teardownSleep)
	})
}

// probeServer times a 4 KB StoreOp applied by a server over simulated
// Ethernet, without and with a journal. The administrative
// Server.WriteFile bypasses the apply pipeline and is never journaled,
// so the probe goes through the RPC a connected Venus would send.
func probeServer(p *probeRun) {
	const n = 50
	data := make([]byte, 4096)
	for _, journaled := range []bool{false, true} {
		sim, net := ethernet(1)
		srv := server.New(sim, net.Host("server"))
		if journaled {
			_, err := srv.AttachJournal(server.JournalOptions{FS: crashfs.NewMem(), Dir: "sj", Policy: wal.SyncEachRecord})
			probeFail("server", err)
		}
		_, err := srv.CreateVolume("usr")
		probeFail("server", err)
		st, err := srv.WriteFile("usr", "f.dat", data)
		probeFail("server", err)
		c := rpc2.NewNode(sim, net.Host("client"), netmon.NewMonitor(sim), nil, nil)
		store := func() {
			for i := 0; i < n; i++ {
				rep, err := wire.Call[wire.MutateRep](c, "server",
					wire.StoreOp{FID: st.FID, Data: data, PrevVersion: st.Version}, rpc2.CallOpts{})
				probeFail("server", err)
				st = rep.Status
			}
		}
		sim.Run(func() {
			if journaled {
				p.time("server.write_journaled_ns", n, store)
				p.allocs("server.write_journaled_allocs", n, store)
			} else {
				p.time("server.write_ns", n, store)
			}
			c.Close()
			srv.Close()
			sim.Sleep(teardownSleep)
		})
	}

	// SaveState of the Concord universe (240 files, ~2 MB).
	sim, net := ethernet(1)
	srv := server.New(sim, net.Host("server"))
	probeFail("server", trace.SeedServer(srv, trace.Generate(trace.SegmentPreset("Concord", 1))))
	p.sample("server.savestate_ms", func() float64 {
		t0 := time.Now()
		probeFail("server", srv.SaveState(io.Discard))
		return float64(time.Since(t0)) / float64(time.Millisecond)
	})
	sim.Run(func() {
		srv.Close()
		sim.Sleep(teardownSleep)
	})
}

func probeWAL(p *probeRun) {
	const n = 200
	payload := make([]byte, 256)
	w, _, err := wal.Open(wal.Options{FS: crashfs.NewMem(), Dir: "j", Policy: wal.SyncEachRecord}, nil)
	probeFail("wal", err)
	appendN := func() {
		for i := 0; i < n; i++ {
			probeFail("wal", w.Append(payload))
		}
	}
	p.time("wal.append_ns", n, appendN)
	p.allocs("wal.append_allocs", n, appendN)
	probeFail("wal", w.Close())

	// Cold start over a 10 000-record log, as BenchmarkRecoveryReplay.
	const records = 10_000
	fs := crashfs.NewMem()
	opts := wal.Options{FS: fs, Dir: "j", Policy: wal.SyncNone, SegmentBytes: 1 << 20}
	w, _, err = wal.Open(opts, nil)
	probeFail("wal", err)
	for i := 0; i < records; i++ {
		probeFail("wal", w.Append(payload))
	}
	probeFail("wal", w.Sync())
	probeFail("wal", w.Close())
	p.time("wal.replay_ns_per_rec", records, func() {
		replayed := 0
		r, _, err := wal.Open(opts, func([]byte) error { replayed++; return nil })
		probeFail("wal", err)
		if replayed != records {
			panic(fmt.Sprintf("codaperf: wal probe: replayed %d of %d records", replayed, records))
		}
		probeFail("wal", r.Close())
	})
	names, err := fs.ReadDir("j")
	probeFail("wal", err)
	var disk int64
	for _, name := range names {
		f, err := fs.Open("j/" + name)
		probeFail("wal", err)
		size, err := io.Copy(io.Discard, f)
		probeFail("wal", err)
		probeFail("wal", f.Close())
		disk += size
	}
	p.metrics["wal.disk_bytes_per_payload_byte"] = float64(disk) / float64(records*len(payload))
}

// probeCrashfs times the in-memory disk the way a WAL uses it: 256 B
// appends to a segment-sized file. Mem.Sync copies the whole file, so its
// cost is that of the file size; the probe pins it at a half-full 1 MiB
// segment by starting each batch on a fresh pre-filled file.
func probeCrashfs(p *probeRun) {
	const n = 200
	payload := make([]byte, 256)
	halfSegment := make([]byte, 512<<10)
	fs := crashfs.NewMem()
	batch := func(sync bool) float64 {
		f, err := fs.Create("probe")
		probeFail("crashfs", err)
		_, err = f.Write(halfSegment)
		probeFail("crashfs", err)
		probeFail("crashfs", f.Sync())
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_, err := f.Write(payload)
			probeFail("crashfs", err)
			if sync {
				probeFail("crashfs", f.Sync())
			}
		}
		return float64(time.Since(t0)) / n
	}
	p.sample("crashfs.write_ns", func() float64 { return batch(false) })
	// A sync with nothing dirty is a no-op, so time write+sync pairs and
	// take the write back out.
	p.sample("crashfs.sync_ns", func() float64 { return batch(true) })
	if p.metrics["crashfs.sync_ns"] -= p.metrics["crashfs.write_ns"]; p.metrics["crashfs.sync_ns"] < 0 {
		p.metrics["crashfs.sync_ns"] = 0
	}
}

// probeGroup times the BenchmarkReplicatedReintegrate cycle: a client
// logs 4 files disconnected and drains them through a 3-member group.
func probeGroup(p *probeRun) {
	p.sample("group.reint4_ms", func() float64 {
		t0 := time.Now()
		sim, net := ethernet(11)
		conns := []netsim.PacketConn{net.Host("s0"), net.Host("s1"), net.Host("s2")}
		grp, err := group.New(sim, conns)
		probeFail("group", err)
		_, err = grp.CreateVolume("work")
		probeFail("group", err)
		var cycle time.Duration
		sim.Run(func() {
			v := venus.New(sim, net.Host("laptop"), venus.Config{
				Servers: grp.Addrs(), ClientID: 1, AgingWindow: time.Second, TrickleInterval: time.Second,
			})
			probeFail("group", v.Mount("work"))
			v.Disconnect()
			for k := 0; k < 4; k++ {
				probeFail("group", v.WriteFile(fmt.Sprintf("/coda/work/f%d.txt", k), []byte(fmt.Sprintf("draft %d", k))))
			}
			v.Connect(0)
			drain(sim, v, time.Second, 10*time.Minute)
			if n := v.CMLRecords(); n != 0 {
				panic(fmt.Sprintf("codaperf: group probe: CML still holds %d records", n))
			}
			cycle = time.Since(t0)
			v.Close()
			grp.Close()
			sim.Sleep(teardownSleep)
		})
		return float64(cycle) / float64(time.Millisecond)
	})
}

func probeTrace(p *probeRun) {
	p.sample("trace.generate_ms", func() float64 {
		t0 := time.Now()
		trace.Generate(trace.SegmentPreset("Concord", 1))
		return float64(time.Since(t0)) / float64(time.Millisecond)
	})
}

func probeObs(p *probeRun) {
	const n = 2000
	sim := simtime.NewSim(simtime.Epoch1995)
	// A fresh registry per batch keeps the span table below its cap, so
	// the timed path is the recording one, not the drop.
	p.sample("obs.span_ns", func() float64 {
		reg := obs.NewRegistry(sim)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			reg.StartSpan("probe", "main_probe", obs.SpanContext{}).End()
		}
		return float64(time.Since(t0)) / n
	})
	c := obs.NewRegistry(sim).Counter("main_probe_total")
	const incs = 100_000
	p.time("obs.counter_ns", incs, func() {
		for i := 0; i < incs; i++ {
			c.Inc()
		}
	})
}

func probeBufpool(p *probeRun) {
	const n = 100_000
	payload := make([]byte, 1200)
	p.time("bufpool.cycle_ns", n, func() {
		for i := 0; i < n; i++ {
			b := bufpool.Get(1300)
			*b = append(*b, payload...)
			bufpool.Put(b)
		}
	})
}
