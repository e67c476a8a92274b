package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Phases of one iteration, in the order they run. Only phaseMeasure is
// timed for the end-to-end numbers; the rest is set-up.
const (
	phaseBuild = iota
	phaseWarm
	phaseMeasure
	phaseVerify
	phaseTeardown
	nPhases
)

var phaseNames = [nPhases]string{"build", "warm", "measure", "verify", "teardown"}

// teardownSleep outlasts the longest daemon period (the servers' 6 h
// sweep), so after Close every tracked goroutine wakes once, sees the
// closed flag and exits.
const teardownSleep = 13 * time.Hour

// iterDeadline is the wall-clock budget of one iteration; a hang must
// never look like a slow run.
const iterDeadline = 60 * time.Second

// world is one simulated deployment. reg is nil with tracing off.
type world struct {
	sim     *simtime.Sim
	net     *netsim.Network
	reg     *obs.Registry
	clients []string
	servers []string
}

func newWorld(it *iter, clients, servers []string) *world {
	sim := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(sim, it.seed)
	net.SetDefaults(netsim.Ethernet.Params())
	w := &world{sim: sim, net: net, clients: clients, servers: servers}
	if it.traced {
		w.reg = obs.NewRegistry(sim)
	}
	it.w = w
	return w
}

// setClientLinks moves every client↔server link to profile p.
func (w *world) setClientLinks(p netsim.LinkParams) {
	for _, c := range w.clients {
		for _, s := range w.servers {
			w.net.SetLink(c, s, p)
		}
	}
}

// addStats adds sign × s to t.
func addStats(t *netsim.Stats, s netsim.Stats, sign int64) {
	t.PacketsSent += sign * s.PacketsSent
	t.BytesSent += sign * s.BytesSent
	t.PacketsLost += sign * s.PacketsLost
}

// linkTotals sums the offered traffic of every directed link among
// froms→tos and back.
func (w *world) linkTotals(froms, tos []string) netsim.Stats {
	var t netsim.Stats
	for _, a := range froms {
		for _, b := range tos {
			if a == b {
				continue
			}
			addStats(&t, w.net.StatsBetween(a, b), 1)
			addStats(&t, w.net.StatsBetween(b, a), 1)
		}
	}
	return t
}

// clientWire is the traffic on every client↔server link, both directions.
func (w *world) clientWire() netsim.Stats { return w.linkTotals(w.clients, w.servers) }

// serverWire is the server↔server (replication) traffic. linkTotals
// visits each unordered pair twice, so halve.
func (w *world) serverWire() netsim.Stats {
	t := w.linkTotals(w.servers, w.servers)
	return netsim.Stats{PacketsSent: t.PacketsSent / 2, BytesSent: t.BytesSent / 2, PacketsLost: t.PacketsLost / 2}
}

// iter is one iteration of a workload: the world it builds, what the
// measured phase cost, and what the checks found.
type iter struct {
	id     int
	seed   int64
	scale  float64
	traced bool
	rec    *recorder // nil with tracing off
	w      *world

	ops         int
	failed      int
	checkFailed bool
	errs        []string

	wall      time.Duration
	steal     time.Duration // stolen by the hypervisor during the measured phase
	ref       time.Duration // reference work run around the measured phase, summed
	refRuns   int
	cpu       time.Duration
	mallocs   uint64
	allocated uint64
	simDur    time.Duration
	wire      netsim.Stats // client links, measured phase
	replWire  netsim.Stats // server↔server links, measured phase
	userBytes int64

	phase      int
	phaseStart time.Time
	phaseSpan  *spanHandle
	phases     [nPhases]time.Duration
	iterSteal  time.Duration // stolen during the whole iteration
	leaked     int

	// Traced pass only.
	sleepWall time.Duration // wall inside Clock.Sleep on the driving goroutine
	dump0     []byte
	dump1     []byte
	simStart  time.Time
	spans     []obs.Span
	simTrace  []byte
}

// scaled sizes a workload dimension by -scale, never below min.
func (it *iter) scaled(n, min int) int {
	v := int(math.Round(float64(n) * it.scale))
	if v < min {
		v = min
	}
	return v
}

// enter closes the current phase and opens the next.
func (it *iter) enter(phase int) {
	now := time.Now()
	if !it.phaseStart.IsZero() {
		it.phases[it.phase] += now.Sub(it.phaseStart)
		it.phaseSpan.end()
	}
	it.phase, it.phaseStart = phase, now
	it.phaseSpan = it.rec.begin("phase."+phaseNames[phase], nil, it.id)
}

// finish closes the last phase.
func (it *iter) finish() {
	it.phases[it.phase] += time.Since(it.phaseStart)
	it.phaseSpan.end()
	it.phaseStart = time.Time{}
}

// call records one call from the harness into a layer as a child span of
// the current phase. It is a no-op with tracing off.
func (it *iter) call(name string) *spanHandle { return it.rec.begin(name, it.phaseSpan, it.id) }

// op counts one operation of the measured phase; err != nil fails it.
func (it *iter) op(err error) {
	it.ops++
	if err != nil {
		it.failed++
		it.failf("op failed: %v", err)
	}
}

// failf records a failed output check or operation.
func (it *iter) failf(format string, args ...any) {
	if len(it.errs) < 8 {
		it.errs = append(it.errs, fmt.Sprintf(format, args...))
	}
}

// check records a failed output check; any failed check fails every op
// of the iteration (see result).
func (it *iter) check(ok bool, format string, args ...any) {
	if !ok {
		it.failf("check failed: "+format, args...)
		it.checkFailed = true
	}
}

// must aborts the iteration on a set-up error: nothing measured after it
// would mean anything.
func (it *iter) must(err error, what string) {
	if err != nil {
		panic(fmt.Sprintf("codaperf: %s: %v", what, err))
	}
}

// measure runs fn as (part of) the measured phase and accumulates what it
// cost. It must be called inside Sim.Run on the driving goroutine; the
// collection before the timer starts keeps one iteration's garbage out of
// the next one's numbers.
func (it *iter) measure(fn func()) {
	it.enter(phaseMeasure)
	w := it.w
	runtime.GC()
	if it.traced && it.dump0 == nil {
		it.dump0 = w.reg.Dump()
		it.simStart = w.sim.Now()
	}
	ref0 := refWork()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wire0, repl0, sim0 := w.clientWire(), w.serverWire(), w.sim.Now()
	steal0 := stolenTime()
	cpu0, t0 := cpuTime(), time.Now()
	fn()
	it.wall += time.Since(t0)
	it.cpu += cpuTime() - cpu0
	it.steal += stolenTime() - steal0
	runtime.ReadMemStats(&m1)
	it.ref += ref0 + refWork()
	it.refRuns += 2
	it.mallocs += m1.Mallocs - m0.Mallocs
	it.allocated += m1.TotalAlloc - m0.TotalAlloc
	it.simDur += w.sim.Now().Sub(sim0)
	addStats(&it.wire, w.clientWire(), 1)
	addStats(&it.wire, wire0, -1)
	addStats(&it.replWire, w.serverWire(), 1)
	addStats(&it.replWire, repl0, -1)
	if it.traced {
		it.dump1 = w.reg.Dump()
	}
}

// clock returns the clock the measured phase drives: the Sim itself with
// tracing off, a wrapper that times Sleep in the traced pass.
func (it *iter) clock() simtime.Clock {
	if !it.traced {
		return it.w.sim
	}
	return &sleepTimer{Sim: it.w.sim, it: it}
}

// sleepTimer charges the wall time the driving goroutine spends inside
// Sleep to the iteration (simtime.replay_sleep_share_pct).
type sleepTimer struct {
	*simtime.Sim
	it *iter
}

func (c *sleepTimer) Sleep(d time.Duration) {
	t0 := time.Now()
	c.Sim.Sleep(d)
	c.it.sleepWall += time.Since(t0)
}

// teardown closes every component (inside Sim.Run), lets the daemons run
// out, and snapshots the registry for the traced metrics.
func (it *iter) teardown(closers ...func()) {
	it.enter(phaseTeardown)
	if it.traced {
		reg := it.w.reg
		it.spans = reg.Spans()
		it.simTrace = reg.ExportTrace()
	}
	for _, c := range closers {
		c()
	}
	it.w.sim.Sleep(teardownSleep)
}

// startWatchdog arms the wall-clock deadline for what: on expiry every
// goroutine's stack goes to stderr and the process exits with exitHang,
// which the parent reports as a failed workload.
func startWatchdog(what string) *time.Timer {
	return time.AfterFunc(iterDeadline, func() {
		fmt.Fprintf(os.Stderr, "codaperf: WATCHDOG: %s still running after %v; goroutine stacks follow\n", what, iterDeadline)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // best effort on the way out
		os.Exit(exitHang)
	})
}

// runIter runs one iteration of wl under the watchdog and the goroutine
// leak check.
func runIter(wl *workload, it *iter) {
	watchdog := startWatchdog(fmt.Sprintf("workload %s iteration %d", wl.name, it.id))
	defer watchdog.Stop()

	before, steal0 := runtime.NumGoroutine(), stolenTime()
	it.enter(phaseBuild)
	wl.run(it)
	// Goroutines released by the teardown sleep need a moment of real
	// time to run off the end of their functions.
	for wait := time.Now(); runtime.NumGoroutine() > before && time.Since(wait) < 2*time.Second; {
		time.Sleep(time.Millisecond)
	}
	it.finish()
	it.iterSteal = stolenTime() - steal0
	it.leaked = runtime.NumGoroutine() - before
	if it.leaked < 0 {
		it.leaked = 0
	}
	it.check(it.leaked == 0, "%d goroutine(s) leaked", it.leaked)
	it.w = nil
}

// speed is how fast the machine ran around this iteration's measured
// phase, relative to the reference machine's usual state (1 = as usual,
// 0.8 = a fifth slower).
func (it *iter) speed() float64 {
	if it.refRuns == 0 || it.ref <= 0 {
		return 1
	}
	return float64(refNominal) * float64(it.refRuns) / float64(it.ref)
}

// corrected converts a duration of this iteration, net of steal, into
// seconds of the reference machine at its usual speed.
func (it *iter) corrected(d time.Duration) float64 { return d.Seconds() * it.speed() }

// busy is the measured phase in corrected seconds: the divisor of every
// rate.
func (it *iter) busy() float64 { return it.corrected(lessSteal(it.wall, it.steal)) }

// setup is the iteration outside the measured timer, in corrected
// seconds. The measured phase brackets its timer with a collection and
// two MemStats reads, which is set-up too; the reference work is the
// harness measuring the machine, and is not.
func (it *iter) setup() float64 {
	var all time.Duration
	for _, v := range it.phases {
		all += v
	}
	return it.corrected(lessSteal(all-it.wall-it.ref, it.iterSteal-it.steal))
}

// ---- order statistics ----

// quantile interpolates the q-quantile (0..1) of xs, the way Python's
// statistics.quantiles(method="inclusive") does.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles is q1, median, q3.
type quartiles [3]float64

func quartilesOf(xs []float64) quartiles {
	return quartiles{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}
