package experiments

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/venus"
	"repro/internal/world"
)

// ReplResult quantifies server replication (the paper's replicated volume
// storage groups, §2; ROADMAP item 1): what a three-member group costs on
// the client's link relative to a single server, and how the group behaves
// through a member failure — client failover latency, catch-up volume, and
// end-state byte identity across replicas.
//
// The gated number is the client-link overhead. Replication fans writes
// out between servers, but the client still ships each update once and
// fails over rather than multicasting — so the weak link the paper is
// about must not pay for the extra replicas. TestFigureReplShape holds
// ClientRatioX100 to a ≤2× acceptance bound and pins it with the failure
// phase's fields.
type ReplResult struct {
	Members   int
	Files     int
	FileBytes int

	// Client-link wire bytes (both directions, same workload).
	SingleClientBytes int64
	GroupClientBytes  int64
	// Totals including server↔server ship traffic.
	SingleTotalBytes int64
	GroupTotalBytes  int64
	// GroupClientBytes / SingleClientBytes × 100.
	ClientRatioX100 int64

	// Failure phase (group run only): one member killed mid-workload.
	Failovers      int64
	FailoverWaitUS int64
	CatchupRecords int64
	Identical      bool
}

// replRunOut is one deployment's measurements.
type replRunOut struct {
	clientBytes int64
	totalBytes  int64
	ratioX100   int64
	failovers   int64
	failWaitUS  int64
	catchup     int64
	identical   bool
}

// replWireBytes sums wire bytes over the client link (laptop↔members)
// and over every link in the deployment (adding member↔member ship
// traffic).
func replWireBytes(net *netsim.Network, members []string) (client, total int64) {
	for i, m := range members {
		client += net.StatsBetween("laptop", m).BytesSent
		client += net.StatsBetween(m, "laptop").BytesSent
		for j, peer := range members {
			if j != i {
				total += net.StatsBetween(m, peer).BytesSent
			}
		}
	}
	total += client
	return client, total
}

// replRun drives the workload against a members-sized group: connected
// writes, then — in the failure run, the one given the single-server
// run to compare against — a member kill mid-workload, more writes
// riding on failover, and a journal-replay restart followed by CatchUp.
func replRun(opts Options, members, files, fileBytes, extraFiles int, single *replRunOut) replRunOut {
	fail := single != nil
	w := world.New(opts.Seed + 41 + int64(members))
	addrs := make([]string, members)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("srv%d", i)
	}
	grp := w.Group(fail, addrs...)
	info, err := grp.CreateVolume("work")
	if err != nil {
		panic(fmt.Sprintf("repl setup: %v", err))
	}

	var out replRunOut
	w.Run(func() {
		v := w.Client("laptop", grp, venus.Config{
			ClientID:        1,
			TrickleInterval: time.Second,
		})
		if err := v.Mount("work"); err != nil {
			panic(err)
		}
		payload := make([]byte, fileBytes)
		for i := range payload {
			payload[i] = byte(i)
		}
		for f := 0; f < files; f++ {
			if err := v.WriteFile(fmt.Sprintf("/coda/work/f%03d.txt", f), payload); err != nil {
				panic(err)
			}
		}
		w.Sim.Sleep(30 * time.Second) // let ships drain
		out.clientBytes, out.totalBytes = replWireBytes(w.Net, addrs)

		if !fail {
			return
		}
		// Kill the client's preferred member mid-workload. The writes that
		// follow must succeed through failover; the client pays one RPC
		// timeout, recorded as failover wait.
		victim := int(uint64(info.ID) % uint64(members))
		grp.Kill(victim)
		for f := 0; f < extraFiles; f++ {
			if err := v.WriteFile(fmt.Sprintf("/coda/work/g%03d.txt", f), payload); err != nil {
				panic(fmt.Sprintf("repl: write during member outage: %v", err))
			}
		}
		st := v.Stats()
		out.failovers = st.Failovers
		//codalint:ignore obsname reading Venus's existing failover-wait series, not registering an experiments one
		out.failWaitUS = w.Reg.Counter("venus_failover_wait_us_total", obs.L("client", "laptop")).Value()

		// Reboot the victim: fresh process on the old address, WAL replay,
		// then a pull of everything it missed from the member the client
		// failed over to.
		if err := grp.Restart(victim, addrs[(victim+1)%members]); err != nil {
			panic(fmt.Sprintf("repl: %v", err))
		}
		w.Sim.Sleep(10 * time.Second)
		out.catchup = grp.Member(victim).Stats().CatchupRecords
		_, _, err := grp.Identical()
		out.identical = err == nil
		if single.clientBytes > 0 {
			out.ratioX100 = out.clientBytes * 100 / single.clientBytes
		}
	})
	return out
}

// FigureRepl runs the replication overhead and failure experiment: the
// same connected workload against one server and against a three-member
// group, then a kill/restart/catch-up pass on the group.
func FigureRepl(opts Options) ReplResult {
	opts.fill()
	files, size, extra := 24, 8<<10, 6
	if opts.Quick {
		files, size, extra = 8, 2<<10, 3
	}
	res := ReplResult{Members: 3, Files: files, FileBytes: size}

	single := replRun(opts, 1, files, size, 0, nil)
	grp := replRun(opts, res.Members, files, size, extra, &single)

	res.SingleClientBytes, res.SingleTotalBytes = single.clientBytes, single.totalBytes
	res.GroupClientBytes, res.GroupTotalBytes = grp.clientBytes, grp.totalBytes
	res.ClientRatioX100 = grp.ratioX100
	res.Failovers = grp.failovers
	res.FailoverWaitUS = grp.failWaitUS
	res.CatchupRecords = grp.catchup
	res.Identical = grp.identical
	return res
}

// Render prints the comparison in the repo's table format.
func (r ReplResult) Render() string {
	t := newTable(26, 16, 16, 10)
	t.row("", "single", fmt.Sprintf("%d replicas", r.Members), "ratio")
	t.line()
	ratio := func(a, b int64) string {
		if a == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", float64(b)/float64(a))
	}
	t.row("client-link KB", kb(r.SingleClientBytes), kb(r.GroupClientBytes),
		ratio(r.SingleClientBytes, r.GroupClientBytes))
	t.row("total wire KB", kb(r.SingleTotalBytes), kb(r.GroupTotalBytes),
		ratio(r.SingleTotalBytes, r.GroupTotalBytes))
	out := fmt.Sprintf("Replication: %d files × %d KB connected writes\n%s",
		r.Files, r.FileBytes>>10, t.String())
	out += fmt.Sprintf("member kill: %d failover(s), %d µs failover wait, "+
		"%d records caught up, byte-identical=%v\n",
		r.Failovers, r.FailoverWaitUS, r.CatchupRecords, r.Identical)
	return out
}
