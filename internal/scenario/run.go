package scenario

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/venus"
	"repro/internal/world"
)

// profileByName maps scenario profile names onto netsim's calibrated
// network technologies.
var profileByName = map[string]netsim.Profile{
	"ethernet": netsim.Ethernet,
	"wavelan":  netsim.WaveLan,
	"isdn":     netsim.ISDN,
	"modem":    netsim.Modem,
}

// Run validates s, compiles it onto the sim substrate, executes the
// schedule, and evaluates the assertions. The returned error covers
// problems with the scenario itself (validation, world construction);
// step and assertion failures are reported in the Result, whose OK
// method is the pass/fail verdict. Identical scenarios produce
// byte-identical Result dumps: everything in the run — network timing,
// journal fault points, trace workloads — derives from the scenario
// seed on a virtual clock.
func Run(s *Scenario) (*Result, error) {
	topo, err := validate(s)
	if err != nil {
		return nil, err
	}
	if s.IsTemplate() {
		return nil, fmt.Errorf("scenario %s: is a template; expand it with the matrix command first", s.Name)
	}
	w, err := compile(s, topo)
	if err != nil {
		return nil, err
	}

	res := &Result{Scenario: s.Name, Seed: s.Seed, Steps: len(s.Steps)}
	w.Run(func() {
		w.startClients()
		if err := w.mountAll(); err != nil {
			res.StepFailure = err.Error()
			return
		}
		start := w.Sim.Now()
		w.scheduleStart = start
		for i := range s.Steps {
			if err := w.execStep(&s.Steps[i]); err != nil {
				res.StepFailure = fmt.Sprintf("%s:%d: %s: %v", s.Name, s.Steps[i].Line, s.Steps[i].Kind, err)
				break
			}
		}
		res.ElapsedSimUS = w.Sim.Now().Sub(start).Microseconds()
		// The dump is captured before assertions run so assertion-time
		// reads (client-file fetches bump cache counters) cannot perturb
		// it; metric assertions read this same snapshot.
		res.Metrics = w.Reg.Dump()
		res.Trace = w.Reg.ExportTrace()
		for i := range s.Asserts {
			res.Asserts = append(res.Asserts, w.evalAssert(&s.Asserts[i], res))
		}
	})
	return res, nil
}

// compiled is one compiled scenario: the simulated deployment plus the
// handles steps and assertions act on.
type compiled struct {
	scn  *Scenario
	topo *topology

	*world.World
	groups  map[string]*world.Group
	clients map[string]*venus.Venus
	traces  map[string]*trace.Trace

	scheduleStart time.Time
}

// compile constructs the deployment: network, groups (journaled where
// declared), volumes, seeds, and trace universes. Clients are started
// later, inside the sim run.
func compile(s *Scenario, topo *topology) (*compiled, error) {
	w := &compiled{
		scn:     s,
		topo:    topo,
		World:   world.New(s.Seed),
		groups:  map[string]*world.Group{},
		clients: map[string]*venus.Venus{},
		traces:  map[string]*trace.Trace{},
	}
	for gi := range s.Groups {
		gd := &s.Groups[gi]
		addrs := make([]string, gd.Members)
		for i := range addrs {
			addrs[i] = serverName(gd.Name, i)
		}
		w.groups[gd.Name] = w.Group(gd.Journal, addrs...)
	}
	for i := range s.Volumes {
		vd := &s.Volumes[i]
		if _, err := w.groups[vd.Group].CreateVolume(vd.Name); err != nil {
			return nil, fmt.Errorf("scenario %s: volume %s: %w", s.Name, vd.Name, err)
		}
	}
	for i := range s.Seeds {
		sd := &s.Seeds[i]
		grp := w.groups[topo.volumes[sd.Volume]]
		var err error
		if sd.Dir {
			err = grp.MakeDir(sd.Volume, sd.Path)
		} else {
			err = grp.WriteFile(sd.Volume, sd.Path, sd.Data)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario %s: seed %s/%s: %w", s.Name, sd.Volume, sd.Path, err)
		}
	}
	for i := range s.Traces {
		td := &s.Traces[i]
		p := trace.SegmentPreset(td.Segment, s.Seed)
		scale := 1.0
		if td.ScalePct > 0 {
			scale = float64(td.ScalePct) / 100
		}
		p.Updates = int(float64(p.Updates) * scale)
		p.RefsPerUpdate = int(float64(p.RefsPerUpdate) * scale)
		if p.RefsPerUpdate < 1 {
			p.RefsPerUpdate = 1
		}
		tr := trace.Generate(p)
		grp := w.groups[topo.volumes[traceVolume]]
		// Traces are seeded identically on every member, like any other
		// administrative write (SeedServer iterates its manifest in
		// sorted order, so members end identical).
		if err := grp.Each(func(srv *server.Server) error {
			return trace.SeedServer(srv, tr)
		}); err != nil {
			return nil, fmt.Errorf("scenario %s: trace %s: %w", s.Name, td.Name, err)
		}
		w.traces[td.Name] = tr
	}
	return w, nil
}

// serverName is the canonical address of group member i.
func serverName(group string, i int) string { return group + strconv.Itoa(i) }

// startClients constructs every declared Venus. Runs inside sim.Run so
// the client daemons are tracked from their first instant, like every
// harness in the repo.
func (w *compiled) startClients() {
	for i := range w.scn.Clients {
		cd := &w.scn.Clients[i]
		w.clients[cd.Name] = w.Client(cd.Name, w.groups[cd.Group], venus.Config{
			ClientID:             cd.ID,
			CacheBytes:           cd.CacheBytes,
			AgingWindow:          cd.Aging,
			TrickleInterval:      cd.Trickle,
			ChunkSeconds:         cd.ChunkSeconds,
			PinWriteDisconnected: cd.PinWD,
		})
	}
}

// mountAll performs the declared mounts in order.
func (w *compiled) mountAll() error {
	for i := range w.scn.Mounts {
		m := &w.scn.Mounts[i]
		if err := w.clients[m.Client].Mount(m.Volume); err != nil {
			return fmt.Errorf("%s:%d: mount %s %s: %w", w.scn.Name, m.Line, m.Client, m.Volume, err)
		}
	}
	return nil
}

// targetAddrs expands a step target into server addresses: a group name
// yields every member, a member name just itself.
func (w *compiled) targetAddrs(target string) []string {
	g, idx, isGroup, err := w.topo.resolveTarget(target)
	if err != nil {
		// Validate already vetted every target.
		panic(fmt.Sprintf("scenario: unresolved target %q after validation: %v", target, err))
	}
	if !isGroup {
		return []string{serverName(g, idx)}
	}
	n := w.topo.groups[g].Members
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = serverName(g, i)
	}
	return addrs
}

// execStep runs one schedule step on the live world.
func (w *compiled) execStep(st *Step) error {
	v := w.clients[st.Client] // nil for server-side steps
	switch st.Kind {
	case StepAt:
		target := w.scheduleStart.Add(st.Dur)
		if d := target.Sub(w.Sim.Now()); d > 0 {
			w.Sim.Sleep(d)
		}
	case StepAfter:
		w.Sim.Sleep(st.Dur)
	case StepWrite:
		return v.WriteFile(st.Path, st.Data)
	case StepMkdir:
		return v.Mkdir(st.Path)
	case StepRemove:
		return v.Remove(st.Path)
	case StepRead:
		data, err := v.ReadFile(st.Path)
		if err != nil {
			return err
		}
		if st.HasData && !bytes.Equal(data, st.Expect) {
			return fmt.Errorf("read %s = %q, want %q", st.Path, clip(data), clip(st.Expect))
		}
	case StepDisconnect:
		v.Disconnect()
	case StepWriteDisc:
		v.WriteDisconnect()
	case StepConnect:
		v.Connect(st.N)
	case StepHoard:
		v.HoardAdd(st.Path, int(st.N), st.Flag)
	case StepHoardWalk:
		return v.HoardWalk()
	case StepReintegrate:
		return v.ForceReintegrate()
	case StepLink:
		for _, addr := range w.targetAddrs(st.Target) {
			switch st.Mode {
			case LinkUp:
				w.Net.SetUp(st.Client, addr, true)
			case LinkDown:
				w.Net.SetUp(st.Client, addr, false)
			case LinkProfile:
				w.Net.SetLink(st.Client, addr, profileByName[st.Profile].Params())
			case LinkParams:
				bw, lat := st.N, st.Latency
				w.Net.Configure(st.Client, addr, func(p *netsim.LinkParams) {
					p.Bandwidth = bw
					if lat > 0 {
						p.Latency = lat
					}
				})
			}
		}
	case StepFlap:
		w.scheduleFlaps(st)
	case StepKill:
		g, idx, _, _ := w.topo.resolveTarget(st.Target)
		w.groups[g].Kill(idx)
	case StepCrashArm:
		g, idx, _, _ := w.topo.resolveTarget(st.Target)
		w.groups[g].Disk(idx).ArmCrash(int(st.N), 0)
	case StepRestart:
		g, idx, _, _ := w.topo.resolveTarget(st.Target)
		return w.groups[g].Restart(idx, st.From)
	case StepConverge:
		return w.groups[st.Target].Converge()
	case StepDrain:
		deadline := w.Sim.Now().Add(st.Dur)
		for v.CMLRecords() > 0 && w.Sim.Now().Before(deadline) {
			w.Sim.Sleep(time.Second)
		}
		if n := v.CMLRecords(); n != 0 {
			return fmt.Errorf("CML still holds %d records after %v", n, st.Dur)
		}
	case StepReplay:
		tr := w.traces[st.Target]
		td := w.topo.traces[st.Target]
		opts := trace.ReplayOpts{Lambda: td.Lambda, OpCost: td.OpCost}
		if opts.Lambda == 0 {
			opts.Lambda = time.Second
		}
		if opts.OpCost == 0 {
			opts.OpCost = 3 * time.Millisecond
		}
		if st.Dur > 0 {
			warm := tr.Slice(0, st.Dur)
			rest := tr.Slice(st.Dur, tr.Duration()+time.Minute)
			trace.Replay(w.Sim, v, warm, opts)
			trace.Replay(w.Sim, v, rest, opts)
		} else {
			trace.Replay(w.Sim, v, tr, opts)
		}
	default:
		return fmt.Errorf("unhandled step kind %q", st.Kind)
	}
	return nil
}

// scheduleFlaps schedules st.N down/up cycles of the client↔target
// links, each period long, starting now. The toggles ride on AfterFunc
// so the schedule continues underneath the churn — the same overlap a
// real flapping link inflicts on a reintegration in flight.
func (w *compiled) scheduleFlaps(st *Step) {
	addrs := w.targetAddrs(st.Target)
	client := st.Client
	for i := int64(0); i < st.N; i++ {
		down := time.Duration(i) * st.Dur
		up := down + st.Dur/2
		w.Sim.AfterFunc(down, func() {
			for _, a := range addrs {
				w.Net.SetUp(client, a, false)
			}
		})
		w.Sim.AfterFunc(up, func() {
			for _, a := range addrs {
				w.Net.SetUp(client, a, true)
			}
		})
	}
}

// clip bounds content in error messages.
func clip(b []byte) string {
	const max = 64
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}
