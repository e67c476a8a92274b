package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/codafs"
	"repro/internal/crashfs"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/venus"
	"repro/internal/wal"
)

// workload is one closed-loop load shape. run builds a whole deployment
// from it.seed, drives it, checks its outputs and tears it down; every
// iteration of a run builds the same world.
type workload struct {
	name    string
	clients int
	why     string
	run     func(it *iter)
}

var workloads = []*workload{
	{"replay_concord_modem", 1,
		"Fig 12 cell: 98% cache hits and two Sim.Sleeps per op, so simtime, the Venus hit path and the replayer do the work and the wire layers almost none",
		replayConcordModem},
	{"reint_bulk_modem", 1,
		"write side of the wire: cml, wire, rpc2, sftp, netsim and server apply ship ~18 MB over a lossy 9.6 kb/s link; sim_s is serialization-bound",
		reintBulkModem},
	{"fetch_cold_isdn", 1,
		"same wire layers used server-to-client: one small RPC per object, demand misses, a hoard walk and volume-stamp validation over ISDN",
		fetchColdISDN},
	{"group_journal_eth", 4,
		"network time negligible: server apply, gob journal encoding, wal, crashfs and group ShipLog do the work for 4 journaled clients on a 3-member group",
		groupJournalEth},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// normalizedExp draws n exponentially distributed sizes and rescales them
// so they sum to exactly n*mean: the byte totals a workload ships are
// then a constant of the generator and only their spread over files
// depends on the seed.
func normalizedExp(rng *rand.Rand, n, mean int) []int {
	raw := make([]float64, n)
	var sum float64
	for i := range raw {
		raw[i] = rng.ExpFloat64() + 0.02
		sum += raw[i]
	}
	sizes := make([]int, n)
	total := 0
	for i, r := range raw {
		sizes[i] = int(r / sum * float64(n*mean))
		total += sizes[i]
	}
	sizes[0] += n*mean - total
	return sizes
}

// randomBytes is seeded, incompressible file content.
func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	_, _ = rng.Read(b) // math/rand.Rand.Read never fails
	return b
}

// drain waits, polling every poll of simulated time, until v's CML is
// empty. (ForceReintegrate would be the direct way, but on a weak link it
// can freeze virtual time against the trickle loop — see README, hazards.)
func drain(clk simtime.Clock, v *venus.Venus, poll, budget time.Duration) {
	deadline := clk.Now().Add(budget)
	for v.CMLRecords() > 0 && clk.Now().Before(deadline) {
		clk.Sleep(poll)
	}
}

// ---- replay_concord_modem ----

const (
	replayWarmPrefix = 10 * time.Minute
	replayLambda     = time.Second
	replayOpCost     = 3 * time.Millisecond
)

func replayConcordModem(it *iter) {
	// The canonical Concord instance (preset seed 0), not one per -seed:
	// the preset's calibrated statistics hold across instances, but
	// compressibility and file sizes of single instances differ by 10-20 %,
	// which would drown the deterministic metrics. -seed instead stretches
	// every think time the replay honours by up to ±1 %.
	p := trace.SegmentPreset("Concord", 0)
	// Extend the 45-minute segment by the 10-minute warm prefix at the
	// same activity rate, as the Fig 12 driver does.
	full := p.Duration + replayWarmPrefix
	p.Updates = it.scaled(int(float64(p.Updates)*float64(full)/float64(p.Duration)), 20)
	p.Duration = full
	tr := trace.Generate(p)
	rng := rand.New(rand.NewSource(it.seed))
	var prev, shift time.Duration
	for i := range tr.Records {
		r := &tr.Records[i]
		gap := r.T - prev
		prev = r.T
		if gap >= replayLambda {
			shift += time.Duration(float64(gap) * (rng.Float64() - 0.5) / 50)
		}
		r.T += shift
		if r.Op == trace.OpWrite {
			it.userBytes += int64(r.Size)
		}
	}

	w := newWorld(it, []string{"client"}, []string{"server"})
	srv := server.New(w.sim, w.net.Host("server"), server.WithObs(w.reg))
	it.must(trace.SeedServer(srv, tr), "seed server")

	w.sim.Run(func() {
		it.enter(phaseWarm)
		v := venus.New(w.sim, w.net.Host("client"), venus.Config{
			Server: "server", ClientID: 1, CacheBytes: 1 << 30,
			AgingWindow: 600 * time.Second, PinWriteDisconnected: true, Obs: w.reg,
		})
		it.must(v.Mount(tr.Volume), "mount")
		v.HoardAdd(codafs.JoinPath(tr.Volume), 600, true)
		it.must(v.HoardWalk(), "hoard walk")
		v.WriteDisconnect()
		w.setClientLinks(netsim.Modem.Params())
		v.Connect(netsim.Modem.Bandwidth)

		var st trace.ReplayStats
		clk := it.clock()
		it.measure(func() {
			sp := it.call("trace.Replay")
			st = trace.Replay(clk, v, tr, trace.ReplayOpts{Lambda: replayLambda, OpCost: replayOpCost})
			sp.end()
		})
		it.ops = st.Ops
		it.failed = st.Errors + st.CacheMisses

		it.enter(phaseVerify)
		it.check(st.Ops == len(tr.Records), "replayed %d of %d records", st.Ops, len(tr.Records))
		it.check(st.Errors == 0, "%d replay errors", st.Errors)
		it.check(st.CacheMisses == 0, "%d cache misses on a warm cache", st.CacheMisses)

		it.teardown(v.Close, srv.Close)
	})
}

// ---- reint_bulk_modem ----

const (
	bulkVolume   = "bulk"
	bulkDirs     = 8
	bulkMeanSize = 16 << 10
	// bulkLossRate makes the modem link lossy, so retransmission
	// behaviour is part of sim_s and of the wire-byte ratio.
	bulkLossRate = 0.005
)

func reintBulkModem(it *iter) {
	n := it.scaled(1200, 35)
	rng := rand.New(rand.NewSource(it.seed))
	// Every 5th file is overwritten at half length; size the two groups
	// separately so both byte totals are seed-independent.
	nOver := (n + 4) / 5
	overSizes := normalizedExp(rng, nOver, bulkMeanSize)
	restSizes := normalizedExp(rng, n-nOver, bulkMeanSize)
	type file struct {
		path  string // final path, relative to the volume
		first []byte
		final []byte
	}
	files := make([]file, n)
	for i := range files {
		var size int
		if i%5 == 0 {
			size = overSizes[i/5]
		} else {
			size = restSizes[i-i/5-1]
		}
		f := file{path: fmt.Sprintf("d%d/f%04d.dat", i%bulkDirs, i), first: randomBytes(rng, size)}
		f.final = f.first
		if i%5 == 0 {
			f.final = randomBytes(rng, size/2)
		}
		files[i] = f
	}

	w := newWorld(it, []string{"client"}, []string{"server"})
	srv := server.New(w.sim, w.net.Host("server"), server.WithObs(w.reg))
	_, err := srv.CreateVolume(bulkVolume)
	it.must(err, "create volume")

	w.sim.Run(func() {
		it.enter(phaseWarm)
		v := venus.New(w.sim, w.net.Host("client"), venus.Config{
			Server: "server", ClientID: 1, CacheBytes: 1 << 30,
			AgingWindow: time.Second, TrickleInterval: time.Second, Obs: w.reg,
		})
		it.must(v.Mount(bulkVolume), "mount")
		v.Disconnect()

		clk := it.clock()
		abs := func(rel string) string { return "/coda/" + bulkVolume + "/" + rel }
		it.measure(func() {
			for d := 0; d < bulkDirs; d++ {
				sp := it.call("venus.Mkdir")
				it.op(v.Mkdir(abs(fmt.Sprintf("d%d", d))))
				sp.end()
			}
			for i := range files {
				sp := it.call("venus.WriteFile")
				it.op(v.WriteFile(abs(files[i].path), files[i].first))
				sp.end()
				it.userBytes += int64(len(files[i].first))
			}
			for i := 0; i < n; i += 5 {
				sp := it.call("venus.WriteFile")
				it.op(v.WriteFile(abs(files[i].path), files[i].final))
				sp.end()
				it.userBytes += int64(len(files[i].final))
			}
			for i := 0; i < n; i += 7 {
				renamed := fmt.Sprintf("d%d/r%04d.dat", i%bulkDirs, i)
				sp := it.call("venus.Rename")
				it.op(v.Rename(abs(files[i].path), abs(renamed)))
				sp.end()
				files[i].path = renamed
			}
			modem := netsim.Modem.Params()
			modem.LossRate = bulkLossRate
			w.setClientLinks(modem)
			sp := it.call("venus.Connect")
			v.Connect(netsim.Modem.Bandwidth)
			sp.end()
			sp = it.call("drain")
			drain(clk, v, time.Second, 48*time.Hour)
			sp.end()
		})

		it.enter(phaseVerify)
		it.check(v.CMLRecords() == 0, "CML still holds %d records", v.CMLRecords())
		conflicts := v.Conflicts()
		it.check(len(conflicts) == 0, "%d reintegration conflicts", len(conflicts))
		for i := range files {
			got, err := srv.ReadFile(bulkVolume, files[i].path)
			if err != nil || !bytes.Equal(got, files[i].final) {
				it.check(false, "server copy of %s differs from the last bytes written (err=%v)", files[i].path, err)
				break
			}
		}

		it.teardown(v.Close, srv.Close)
	})
}

// ---- fetch_cold_isdn ----

const (
	fetchVolumes     = 3
	fetchFilesPerDir = 20
	fetchMeanSize    = 8 << 10
	fetchIdle        = 2 * time.Hour
)

func fetchColdISDN(it *iter) {
	dirs := it.scaled(20, 1)
	perVol := dirs * fetchFilesPerDir
	rng := rand.New(rand.NewSource(it.seed))

	w := newWorld(it, []string{"client"}, []string{"server"})
	srv := server.New(w.sim, w.net.Host("server"), server.WithObs(w.reg))
	type file struct {
		vol, rel string
		size     int
	}
	var files []file
	for vi := 0; vi < fetchVolumes; vi++ {
		vol := fmt.Sprintf("v%d", vi)
		_, err := srv.CreateVolume(vol)
		it.must(err, "create volume")
		sizes := normalizedExp(rng, perVol, fetchMeanSize)
		for i, size := range sizes {
			rel := fmt.Sprintf("d%02d/f%02d.dat", i/fetchFilesPerDir, i%fetchFilesPerDir)
			_, err := srv.WriteFile(vol, rel, randomBytes(rng, size))
			it.must(err, "seed file")
			files = append(files, file{vol, rel, size})
			it.userBytes += int64(size)
		}
	}
	// The file the server rewrites while the client is away: the first
	// of v1, so the re-read of every 4th file meets it.
	rewritten := perVol
	newData := randomBytes(rng, fetchMeanSize+1)
	it.userBytes += int64(len(newData))

	isdn := netsim.ISDN.Params()
	w.setClientLinks(isdn)

	w.sim.Run(func() {
		it.enter(phaseWarm)
		// A default priority of 600 puts the patience threshold at ~400 s,
		// so every demand miss is serviced, never deferred to the user.
		v := venus.New(w.sim, w.net.Host("client"), venus.Config{
			Server: "server", ClientID: 1, CacheBytes: 1 << 30, DefaultPriority: 600, Obs: w.reg,
		})
		read := func(f file, wantLen int) {
			sp := it.call("venus.ReadFile")
			data, err := v.ReadFile(codafs.JoinPath(f.vol) + "/" + f.rel)
			sp.end()
			if err == nil && len(data) != wantLen {
				err = fmt.Errorf("%s/%s: read %d bytes, seeded %d", f.vol, f.rel, len(data), wantLen)
			}
			it.op(err)
		}

		it.measure(func() {
			for vi := 0; vi < fetchVolumes; vi++ {
				sp := it.call("venus.Mount")
				it.must(v.Mount(fmt.Sprintf("v%d", vi)), "mount")
				sp.end()
			}
			for i, f := range files {
				if i%perVol < perVol/3 {
					read(f, f.size) // demand miss
				}
			}
			for vi := 0; vi < fetchVolumes; vi++ {
				v.HoardAdd(codafs.JoinPath(fmt.Sprintf("v%d", vi)), 600, true)
			}
			sp := it.call("venus.HoardWalk")
			it.must(v.HoardWalk(), "hoard walk")
			sp.end()
			for _, f := range files {
				read(f, f.size) // hit
			}
			v.Disconnect()
		})

		// Idle disconnection, outside the measured phase. The link is
		// down so the server's callback break for the rewrite cannot
		// reach the client: the stale volume stamp must be caught by
		// validation at reconnection (Fig 8).
		it.enter(phaseWarm)
		w.net.SetUp("client", "server", false)
		_, err := srv.WriteFile(files[rewritten].vol, files[rewritten].rel, newData)
		it.must(err, "server rewrite")
		w.sim.Sleep(fetchIdle)
		w.net.SetUp("client", "server", true)

		it.measure(func() {
			sp := it.call("venus.Connect")
			v.Connect(netsim.ISDN.Bandwidth)
			sp.end()
			for i, f := range files {
				if i%4 == 0 {
					want := f.size
					if i == rewritten {
						want = len(newData)
					}
					read(f, want)
				}
			}
		})
		it.enter(phaseVerify)
		got, err := v.ReadFile(codafs.JoinPath(files[rewritten].vol) + "/" + files[rewritten].rel)
		it.check(err == nil && bytes.Equal(got, newData), "rewritten file did not read back new after revalidation (err=%v)", err)
		st := v.Stats()
		it.check(st.VolValidations == fetchVolumes && st.VolValidationsOK == fetchVolumes-1,
			"volume validations %d ok of %d, want %d of %d", st.VolValidationsOK, st.VolValidations, fetchVolumes-1, fetchVolumes)

		it.teardown(v.Close, srv.Close)
	})
}

// ---- group_journal_eth ----

const (
	groupMembers  = 3
	groupVolumes  = 4
	groupClients  = 4
	groupFileSize = 8 << 10 // mean
	groupSettle   = 30 * time.Second
	// groupPoll is fine enough that sim_s resolves the drain itself, not
	// the poll: on Ethernet a client's CML empties within ~2 s.
	groupPoll = 10 * time.Millisecond
)

func groupJournalEth(it *iter) {
	perVol := it.scaled(25, 2)
	rng := rand.New(rand.NewSource(it.seed))

	servers := make([]string, groupMembers)
	for i := range servers {
		servers[i] = fmt.Sprintf("s%d", i)
	}
	clients := make([]string, groupClients)
	for i := range clients {
		clients[i] = fmt.Sprintf("c%d", i)
	}
	w := newWorld(it, clients, servers)
	conns := make([]netsim.PacketConn, groupMembers)
	for i, s := range servers {
		conns[i] = w.net.Host(s)
	}
	grp, err := group.New(w.sim, conns, group.WithObs(w.reg))
	it.must(err, "group")
	for i := 0; i < grp.Len(); i++ {
		_, err := grp.Member(i).AttachJournal(server.JournalOptions{
			FS: crashfs.NewMem(), Dir: "sj", Policy: wal.SyncEachRecord,
		})
		it.must(err, "server journal")
	}
	vols := make([]string, groupVolumes)
	for i := range vols {
		vols[i] = fmt.Sprintf("g%d", i)
		_, err := grp.CreateVolume(vols[i])
		it.must(err, "create volume")
	}
	// data[c][k][f] is what client c stores as file f of volume k.
	data := make([][][][]byte, groupClients)
	for c := range data {
		data[c] = make([][][]byte, groupVolumes)
		for k := range data[c] {
			data[c][k] = make([][]byte, perVol)
			for f, size := range normalizedExp(rng, perVol, groupFileSize) {
				data[c][k][f] = randomBytes(rng, size)
				it.userBytes += int64(size)
			}
		}
	}
	rel := func(c, f int) string { return fmt.Sprintf("c%d/f%02d.dat", c, f) }
	// Clients do not start in lockstep: each begins up to 100 ms late.
	stagger := make([]time.Duration, groupClients)
	for c := range stagger {
		stagger[c] = time.Duration(rng.Int63n(int64(100 * time.Millisecond)))
	}

	w.sim.Run(func() {
		it.enter(phaseWarm)
		venii := make([]*venus.Venus, groupClients)
		for c := range venii {
			v := venus.New(w.sim, w.net.Host(clients[c]), venus.Config{
				Servers: grp.Addrs(), ClientID: uint32(c + 1), CacheBytes: 1 << 30,
				AgingWindow: time.Second, TrickleInterval: time.Second, Obs: w.reg,
			})
			for _, vol := range vols {
				it.must(v.Mount(vol), "mount")
			}
			_, err := v.AttachJournal(venus.JournalOptions{
				FS: crashfs.NewMem(), Dir: "vj", Policy: wal.SyncEachRecord,
			})
			it.must(err, "venus journal")
			venii[c] = v
		}

		clk := it.clock()
		type tally struct {
			ops  int
			errs []error
		}
		it.measure(func() {
			done := simtime.NewQueue[tally](w.sim)
			for c := range venii {
				c, v := c, venii[c]
				w.sim.Go(func() {
					var t tally
					note := func(err error) {
						if err != nil {
							t.errs = append(t.errs, err)
						}
					}
					w.sim.Sleep(stagger[c])
					v.Disconnect()
					for k, vol := range vols {
						sp := it.call("venus.Mkdir")
						note(v.Mkdir(fmt.Sprintf("/coda/%s/c%d", vol, c)))
						sp.end()
						for f := 0; f < perVol; f++ {
							sp := it.call("venus.WriteFile")
							note(v.WriteFile("/coda/"+vol+"/"+rel(c, f), data[c][k][f]))
							sp.end()
							t.ops++
						}
					}
					sp := it.call("venus.Connect")
					v.Connect(0)
					sp.end()
					sp = it.call("drain")
					drain(w.sim, v, groupPoll, time.Hour)
					sp.end()
					done.Put(t)
				})
			}
			for range venii {
				t, _ := done.Get()
				it.ops += t.ops
				for _, err := range t.errs {
					it.failed++
					it.failf("op failed: %v", err)
				}
			}
			// Let ShipLog bring the two other members level.
			sp := it.call("settle")
			clk.Sleep(groupSettle)
			sp.end()
		})

		it.enter(phaseVerify)
		for c, v := range venii {
			it.check(v.CMLRecords() == 0, "client %d CML still holds %d records", c, v.CMLRecords())
		}
		var images [groupMembers]bytes.Buffer
		for i := range images {
			it.must(grp.Member(i).SaveState(&images[i]), "save state")
			it.check(bytes.Equal(images[i].Bytes(), images[0].Bytes()), "member %d state differs from member 0", i)
		}
	verify:
		for c := range data {
			for k, vol := range vols {
				for f := range data[c][k] {
					for i := 0; i < grp.Len(); i++ {
						got, err := grp.Member(i).ReadFile(vol, rel(c, f))
						if err != nil || !bytes.Equal(got, data[c][k][f]) {
							it.check(false, "member %d copy of %s/%s differs (err=%v)", i, vol, rel(c, f), err)
							break verify
						}
					}
				}
			}
		}
		closers := []func(){grp.Close}
		for _, v := range venii {
			closers = append(closers, v.Close)
		}
		it.teardown(closers...)
	})
}
