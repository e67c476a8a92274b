// Package group assembles server.Server replicas into replicated volume
// storage groups — the paper's VSGs (§2: "volumes … stored at a group of
// servers").
//
// A Group is N servers that each hold every volume the group carries.
// Members push committed log entries to each other (ShipLog) and pull
// missed suffixes after a restart (FetchLog); the group layer itself
// stays out of the data path — it only constructs members with the right
// peer wiring, mirrors administrative operations (volume creation,
// seeding) across them, and exposes replica-lag observability. Clients
// talk to members directly and fail over between them (internal/venus).
package group

import (
	"fmt"

	"repro/internal/codafs"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/simtime"
)

// Group is a set of server replicas that carry the same volumes.
type Group struct {
	clock   simtime.Clock
	addrs   []string
	servers []*server.Server
	reg     *obs.Registry
}

// Option configures a Group at construction.
type Option func(*Group)

// WithObs injects the observability registry every member (and the
// group's own lag gauges) registers metrics with.
func WithObs(reg *obs.Registry) Option {
	return func(g *Group) { g.reg = reg }
}

// New builds a group with one member per connection, each configured to
// push committed log entries to all the others. Member i listens on
// conns[i]; the member order is the group's canonical order (clients
// derive per-volume preferred members from it).
func New(clock simtime.Clock, conns []netsim.PacketConn, opts ...Option) (*Group, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("group: need at least one member")
	}
	g := &Group{clock: clock}
	for _, o := range opts {
		o(g)
	}
	for _, c := range conns {
		g.addrs = append(g.addrs, c.LocalAddr())
	}
	for i, c := range conns {
		g.servers = append(g.servers, server.New(clock, c, g.memberOptions(i)...))
	}
	if g.reg != nil {
		for i := range g.servers {
			// By index, not by server: Restart swaps in a replacement,
			// and the gauge must read the live process.
			g.reg.GaugeFunc("group_replica_lag_entries", func() int64 {
				return g.lagOf(g.servers[i])
			}, obs.L("node", g.addrs[i]))
		}
	}
	return g, nil
}

// memberOptions returns the construction options member i was (and its
// replacement is) built with: the peer wiring — every other member's
// address — the registry, and the hook that surfaces replica divergence
// as the group_divergence_total counter, labeled by node. Counter
// registration is idempotent, so a replacement increments the same
// series the original did.
func (g *Group) memberOptions(i int) []server.Option {
	peers := make([]string, 0, len(g.addrs)-1)
	for j, a := range g.addrs {
		if j != i {
			peers = append(peers, a)
		}
	}
	sopts := []server.Option{server.WithPeers(peers...)}
	if g.reg != nil {
		c := g.reg.Counter("group_divergence_total", obs.L("node", g.addrs[i]))
		sopts = append(sopts,
			server.WithObs(g.reg),
			server.WithDivergenceHook(c.Inc))
	}
	return sopts
}

// Len returns the member count.
func (g *Group) Len() int { return len(g.servers) }

// Addrs returns the members' addresses in canonical order.
func (g *Group) Addrs() []string { return append([]string(nil), g.addrs...) }

// Member returns member i.
func (g *Group) Member(i int) *server.Server { return g.servers[i] }

// Restart boots member i's replacement after a crash: a fresh server on
// conn, built with the member's options, recovers from its journal,
// re-creates any volume the dead member carried whose creation was lost
// with the crash (cmd/codasrv does the same at boot, from its flags),
// and takes the member's place. The dead process must already be closed
// — and its disk rebooted, if the crash was a power cut — and conn must
// listen on the member's address.
func (g *Group) Restart(i int, conn netsim.PacketConn, jopts server.JournalOptions) (*server.Server, error) {
	if conn.LocalAddr() != g.addrs[i] {
		return nil, fmt.Errorf("group: replacement for member %d listens on %q, want %q",
			i, conn.LocalAddr(), g.addrs[i])
	}
	srv := server.New(g.clock, conn, g.memberOptions(i)...)
	if _, err := srv.AttachJournal(jopts); err != nil {
		return nil, fmt.Errorf("group: restart member %d (%s): recovery: %w", i, g.addrs[i], err)
	}
	for _, p := range g.servers[i].VolumePositions() { // ascending ID: creation order
		if _, _, err := srv.VolumeLSN(p.Name); err == nil {
			continue
		}
		if _, err := srv.CreateVolume(p.Name); err != nil {
			return nil, fmt.Errorf("group: restart member %d (%s): %w", i, g.addrs[i], err)
		}
	}
	g.servers[i] = srv
	return srv, nil
}

// Each runs fn on every member in canonical order, stopping at the
// first error. Administrative mutations must go through Each (or the
// helpers below) so members stay identical.
func (g *Group) Each(fn func(*server.Server) error) error {
	for i, s := range g.servers {
		if err := fn(s); err != nil {
			return fmt.Errorf("group: member %d (%s): %w", i, g.addrs[i], err)
		}
	}
	return nil
}

// CreateVolume creates the volume on every member. Members assign IDs
// deterministically, so the same creation order yields the same ID
// everywhere; a mismatch means the members have diverged and is an error.
func (g *Group) CreateVolume(name string) (codafs.VolumeInfo, error) {
	var info codafs.VolumeInfo
	for i, s := range g.servers {
		vi, err := s.CreateVolume(name)
		if err != nil {
			return codafs.VolumeInfo{}, fmt.Errorf("group: member %d (%s): %w", i, g.addrs[i], err)
		}
		if i == 0 {
			info = vi
		} else if vi.ID != info.ID {
			return codafs.VolumeInfo{}, fmt.Errorf(
				"group: volume %q got ID %d on member %d, %d on member 0", name, vi.ID, i, info.ID)
		}
	}
	return info, nil
}

// WriteFile seeds a file identically on every member (administrative
// writes bypass the replicated log, so the group mirrors them).
func (g *Group) WriteFile(volName, relPath string, data []byte) error {
	return g.Each(func(s *server.Server) error {
		_, err := s.WriteFile(volName, relPath, data)
		return err
	})
}

// MakeDir seeds a directory identically on every member.
func (g *Group) MakeDir(volName, relPath string) error {
	return g.Each(func(s *server.Server) error {
		_, err := s.MakeDir(volName, relPath)
		return err
	})
}

// Close shuts down every member.
func (g *Group) Close() {
	for _, s := range g.servers {
		s.Close()
	}
}

// lagOf reports how many log entries srv is behind the most advanced
// member, maximized over volumes — the group_replica_lag_entries gauge.
func (g *Group) lagOf(srv *server.Server) int64 {
	head := make(map[codafs.VolumeID]uint64)
	for _, s := range g.servers {
		for _, p := range s.VolumePositions() {
			if p.LSN > head[p.ID] {
				head[p.ID] = p.LSN
			}
		}
	}
	var lag uint64
	for _, p := range srv.VolumePositions() {
		if h := head[p.ID]; h > p.LSN && h-p.LSN > lag {
			lag = h - p.LSN
		}
	}
	return int64(lag)
}
