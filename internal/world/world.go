// Package world assembles, power-cycles and tears down one simulated
// deployment: the virtual clock, the network emulator, the metrics
// registry, server groups (journaled on fault-injectable disks where
// asked) and Venus clients. Every figure, scenario, example and
// integration test builds its deployment here, so construction order,
// the journal policy, the restart sequence and — above all — teardown
// are decided once.
package world

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/crashfs"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/venus"
	"repro/internal/wal"
)

// teardownSleep is how long Run keeps the clock moving after closing
// everything. A closed daemon only notices on its next wake-up, so the
// sleep must outlast the longest period any daemon is parked for: the
// hoard walk Figure 9 configures at 1 h is the longest in the module
// (defaults: hoard walk 10 min, server and reply-cache sweeps 5 min),
// and 13 h also clears the servers' 6 h fragment TTL twice over. It is
// cmd/codaperf's bound. A closed world schedules nothing, so the length
// costs no wall time; the leak fence in internal/experiments fails if a
// later daemon outlives it.
const teardownSleep = 13 * time.Hour

// World is one simulated deployment. Sim, Net and Reg are exported for
// what only the caller knows — link profiles, sleeps, dumps; servers and
// clients come from Group and Client so Run can tear them down.
type World struct {
	Sim *simtime.Sim
	Net *netsim.Network
	Reg *obs.Registry

	mu      sync.Mutex // Client is called from concurrent sim goroutines
	groups  []*Group
	clients []*venus.Venus
}

// New returns an empty deployment at Epoch1995 whose network draws from
// seed and defaults to Ethernet links.
func New(seed int64) *World {
	sim := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(sim, seed)
	net.SetDefaults(netsim.Ethernet.Params())
	return &World{Sim: sim, Net: net, Reg: obs.NewRegistry(sim)}
}

// Group is a replicated server group plus what the builder knows about
// it: each member's journal disk and whether the member is up.
type Group struct {
	*group.Group
	w     *World
	disks []*crashfs.Mem // nil unless journaled
	dead  []bool
}

// journalOpts is the one WAL configuration journaled members use: an
// fsync per record on the fault-injectable disk, the strictest policy —
// what the crash sweeps cut power under.
func journalOpts(disk *crashfs.Mem) server.JournalOptions {
	return server.JournalOptions{FS: disk, Dir: "sj", Policy: wal.SyncEachRecord}
}

// Group builds a group with one member per address, in order; a single
// address is the single-server deployment. A journaled group gets one
// in-memory disk per member. It panics on failure: with at least one
// address and fresh disks only a bug in the builder can cause one.
func (w *World) Group(journaled bool, addrs ...string) *Group {
	conns := make([]netsim.PacketConn, len(addrs))
	for i, a := range addrs {
		conns[i] = w.Net.Host(a)
	}
	grp, err := group.New(w.Sim, conns, group.WithObs(w.Reg))
	if err != nil {
		panic(fmt.Sprintf("world: %v", err))
	}
	g := &Group{Group: grp, w: w, dead: make([]bool, len(addrs))}
	if journaled {
		g.disks = make([]*crashfs.Mem, len(addrs))
		for i := range g.disks {
			g.disks[i] = crashfs.NewMem()
			if _, err := grp.Member(i).AttachJournal(journalOpts(g.disks[i])); err != nil {
				panic(fmt.Sprintf("world: member %s journal: %v", addrs[i], err))
			}
		}
	}
	w.mu.Lock()
	w.groups = append(w.groups, g)
	w.mu.Unlock()
	return g
}

// Disk returns journaled member i's disk, for arming faults.
func (g *Group) Disk(i int) *crashfs.Mem { return g.disks[i] }

// Kill stops member i's process. Its disk keeps what was durable.
func (g *Group) Kill(i int) {
	g.Member(i).Close()
	g.dead[i] = true
}

// Restart power-cycles journaled member i: the old process leaves the
// address, the disk reboots with only its durable prefix, and a fresh
// server recovers from it (group.Restart). A non-empty from names the
// peer the replacement pulls its missed log suffix from straight away;
// otherwise a later Converge repairs.
func (g *Group) Restart(i int, from string) error {
	addr := g.Addrs()[i]
	g.Member(i).Close()
	g.disks[i].Reboot()
	fresh, err := g.Group.Restart(i, g.w.Net.Host(addr), journalOpts(g.disks[i]))
	if err != nil {
		return err
	}
	g.dead[i] = false
	if from != "" {
		if err := fresh.CatchUp(from); err != nil {
			return fmt.Errorf("restart %s: catch-up from %s: %w", addr, from, err)
		}
	}
	return nil
}

// Converge runs group-wide anti-entropy: every live member pulls from
// every other live member (a pull with nothing to fetch is one cheap RPC
// per volume), then in-flight ships settle. Divergence inside any pull
// is the returned error — loud, never repaired silently.
func (g *Group) Converge() error {
	addrs := g.Addrs()
	for i := range addrs {
		if g.dead[i] {
			continue
		}
		for j := range addrs {
			if j == i || g.dead[j] {
				continue
			}
			if err := g.Member(i).CatchUp(addrs[j]); err != nil {
				return fmt.Errorf("member %d catch-up from %d: %w", i, j, err)
			}
		}
	}
	g.w.Sim.Sleep(5 * time.Second) // in-flight ships land
	return nil
}

// Identical byte-compares SaveState across the live members — the
// strongest replica-equality check the server offers (volumes, vnodes,
// stamps and log chains all feed it). It returns how many members were
// compared and the size of their common image, or an error naming the
// first member that differs.
func (g *Group) Identical() (members, stateBytes int, err error) {
	var ref []byte
	refAddr := ""
	for i, addr := range g.Addrs() {
		if g.dead[i] {
			continue
		}
		var img bytes.Buffer
		if err := g.Member(i).SaveState(&img); err != nil {
			return 0, 0, fmt.Errorf("%s: save state: %w", addr, err)
		}
		if members++; members == 1 {
			ref, refAddr = img.Bytes(), addr
		} else if !bytes.Equal(ref, img.Bytes()) {
			return 0, 0, fmt.Errorf("%s differs from %s (%d vs %d state bytes)", addr, refAddr, img.Len(), len(ref))
		}
	}
	return members, len(ref), nil
}

// Client starts a Venus on host name talking to g, registered in the
// world's registry. Call it inside Run so the client's daemons are
// tracked from their first instant.
func (w *World) Client(name string, g *Group, cfg venus.Config) *venus.Venus {
	cfg.Servers = g.Addrs()
	cfg.Obs = w.Reg
	v := venus.New(w.Sim, w.Net.Host(name), cfg)
	w.mu.Lock()
	w.clients = append(w.clients, v)
	w.mu.Unlock()
	return v
}

// Run executes fn on the virtual clock and then tears the deployment
// down: it closes every client and group the world built and sleeps
// teardownSleep, so each tracked goroutine wakes, sees the closed flag
// and exits. A world that is merely dropped stays pinned, heap and all,
// by daemons parked on its frozen clock. Read metrics and dumps inside
// fn; the world is dead when Run returns.
func (w *World) Run(fn func()) {
	w.Sim.Run(func() {
		fn()
		w.mu.Lock()
		clients, groups := w.clients, w.groups
		w.mu.Unlock()
		for _, v := range clients {
			v.Close()
		}
		for _, g := range groups {
			g.Close()
		}
		w.Sim.Sleep(teardownSleep)
	})
}
