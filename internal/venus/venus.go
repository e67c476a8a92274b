// Package venus implements the Coda client cache manager — the paper's
// Venus — with the weak-connectivity adaptations of §3–§4:
//
//   - the three-state machine of Figure 2 (hoarding / emulating / write
//     disconnected), where the old transient reintegrating state has been
//     replaced by the stable write-disconnected state;
//   - a client modify log per volume with log optimizations, drained by
//     trickle reintegration (aging window, adaptive chunk size, fragmented
//     shipment of large stores — §4.3);
//   - rapid cache validation with volume version stamps and volume
//     callbacks (§4.2), falling back to per-object validation when a stamp
//     proves stale;
//   - hoard database management and the two-phase hoard walk with an
//     interactive approval step (§4.4.2–§4.4.3);
//   - the user patience model τ = α + β·e^(γP) that decides which cache
//     misses are serviced transparently and which are deferred to the user
//     (§4.4.4).
//
// All waiting goes through simtime, so a Venus runs identically under the
// real clock (cmd/codaclient) and the simulated clock (tests, experiments).
package venus

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// State is Venus's operating state (Figure 2).
type State int

// The three stable states of the modified Venus.
const (
	// Hoarding: strongly connected; write-through updates, callbacks
	// maintained, periodic hoard walks.
	Hoarding State = iota
	// Emulating: disconnected; updates logged in the CML, misses fail.
	Emulating
	// WriteDisconnected: weakly connected (or draining after
	// reconnection); updates logged and trickled, misses filtered by the
	// patience model.
	WriteDisconnected
)

func (s State) String() string {
	switch s {
	case Hoarding:
		return "hoarding"
	case Emulating:
		return "emulating"
	case WriteDisconnected:
		return "write-disconnected"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config parameterizes a Venus. Zero values select the paper's defaults.
type Config struct {
	// Servers lists the replicated server group (AVSG) members holding
	// this client's volumes, in the group's canonical order — the same
	// order on every client, so per-volume member preferences agree.
	// Venus fails over between members on RPC timeout and accepts
	// callback breaks from any of them.
	Servers []string
	// Server is shorthand for a single-member Servers list; ignored when
	// Servers is set.
	Server string
	// ClientID distinguishes this client's FID allocations; must be
	// unique among clients of the same server.
	ClientID uint32
	// CacheBytes bounds cached file data (default 50 MB, the size shown
	// in Figure 6).
	CacheBytes int64
	// AgingWindow is A of §4.3.4 (default 600 s).
	AgingWindow time.Duration
	// ChunkSeconds converts bandwidth into the reintegration chunk size
	// C (§4.3.5; default 30 s).
	ChunkSeconds int
	// HoardInterval is the period between hoard walks (default 10 min).
	HoardInterval time.Duration
	// ProbeInterval, when nonzero, runs a connectivity prober: while
	// disconnected Venus probes the server and reconnects by itself; while
	// connected, silence beyond the interval triggers a probe whose
	// failure demotes to emulating. Tests and experiments usually leave
	// it zero and steer connectivity explicitly.
	ProbeInterval time.Duration
	// TrickleInterval is how long an idle trickle loop waits before
	// looking again for aged records (default 10 s); a loop that just
	// committed a chunk looks again at once.
	TrickleInterval time.Duration
	// DefaultPriority is the hoard priority assumed for objects not in
	// the HDB when evaluating patience.
	DefaultPriority int
	// Advisor handles interactions that need the user (nil: the
	// AutoAdvisor, which approves everything, matching the unattended
	// behaviour of Figure 6).
	Advisor Advisor
	// EnableDeltas ships rsync-style file differences instead of full
	// contents during reintegration when the server holds the previous
	// version (the §4.1 future-work transport enhancement; off by
	// default to match the paper's evaluated system).
	EnableDeltas bool
	// DisableLogOptimize turns off CML optimizations (ablation).
	DisableLogOptimize bool
	// DisableVolumeCallbacks forces per-object validation (ablation for
	// Figure 8).
	DisableVolumeCallbacks bool
	// PinWriteDisconnected, when set, prevents the transition to
	// Hoarding even under strong connectivity — the paper's Figure 12
	// methodology ("we forced Venus to remain write disconnected at all
	// bandwidths").
	PinWriteDisconnected bool
	// Obs receives this Venus's metrics and trace events (nil: no
	// observability; instrumentation is inert).
	Obs *obs.Registry
}

func (c *Config) fillDefaults() {
	if len(c.Servers) == 0 && c.Server != "" {
		c.Servers = []string{c.Server}
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 50 << 20
	}
	if c.AgingWindow == 0 {
		c.AgingWindow = 600 * time.Second
	}
	if c.ChunkSeconds == 0 {
		c.ChunkSeconds = 30
	}
	if c.HoardInterval == 0 {
		c.HoardInterval = 10 * time.Minute
	}
	if c.TrickleInterval == 0 {
		c.TrickleInterval = 10 * time.Second
	}
	if c.Advisor == nil {
		c.Advisor = AutoAdvisor{}
	}
}

// Venus is one client cache manager.
type Venus struct {
	clock simtime.Clock
	cfg   Config
	owner string // "client-<ClientID>", the Owner of every record built here
	node  *rpc2.Node
	met   *vmetrics

	mu          sync.Mutex
	state       State
	cache       *cache
	view        cacheView                    // the one view records' effects run through (applyLocked)
	volumes     map[string]*vclient          // by name
	volByID     map[codafs.VolumeID]*vclient //
	memo        map[string]memoEntry         // walk's, by spelling: entries of generation memoGen only
	memoGen     uint64                       // the cache.gen memo's entries were walked at
	hdb         map[string]*HDBEntry         // by path
	misses      []MissRecord                 // deferred misses awaiting user review
	conflicts   []Conflict
	nextVnode   uint64
	nextXfer    uint64
	foreground  int  // foreground network operations in flight
	walking     bool // a hoard walk is in progress
	fetching    map[codafs.FID]bool
	program     string // advisory tag for miss records (Figure 5)
	netCost     NetworkCost
	stats       Stats       // each count's one home; Transitions stays nil
	transitions [3][3]int64 // Stats.Transitions by (from, to)
	closed      bool
	journal     *journal // durability WAL; nil until AttachJournal

	stopped chan struct{}
}

// vclient is Venus's view of one mounted volume. Each mounted volume is
// its own reintegration domain: a per-volume trickle loop drains its CML
// on its own schedule, so a large shipment on one volume never delays
// another volume's records (mirroring the server's per-volume locking).
type vclient struct {
	info     codafs.VolumeInfo
	root     codafs.FID
	stamp    uint64 // cached volume version stamp
	hasStamp bool   // whether stamp is usable (volume callback held)
	log      *cml.Log
	// pref indexes Config.Servers: the group member this volume's RPCs
	// currently target (guarded by Venus.mu). Seeded from the volume ID
	// so all clients of a volume converge on the same member; advanced
	// past a member when a call to it times out (see avsg.go).
	pref int

	// drainTok is a one-token queue serializing reintegration attempts
	// against this volume's CML (its trickle loop vs. the Force* paths),
	// so concurrent drains of DIFFERENT volumes proceed while one
	// volume's drain stays single-file. It is a clock queue, not a
	// mutex, because the holder parks in RPC and SFTP waits: a second
	// drainer must park through the clock too, or the Sim counts it
	// runnable and virtual time never reaches the holder's wakeup. The
	// token is taken before Venus.mu; RPCs are issued holding only the
	// token, never Venus.mu.
	drainTok *simtime.Queue[struct{}]
}

// lockDrain takes vc's drain token, parking on the clock while another
// drain holds it; an uncontended take returns at once.
func (vc *vclient) lockDrain() { _, _ = vc.drainTok.Get() }

// unlockDrain returns the token taken by lockDrain.
func (vc *vclient) unlockDrain() { vc.drainTok.Put(struct{}{}) }

// Conflict records a CML record the server rejected at reintegration.
type Conflict struct {
	Time   time.Time
	Volume string
	Kind   cml.Kind
	Path   string
	Msg    string
}

// Stats counts Venus activity; the experiment harness reads these.
type Stats struct {
	// Cache validation (Figure 9).
	VolValidations    int64 // volume-stamp validation attempts
	VolValidationsOK  int64 // ... that succeeded
	ObjsSavedByVolume int64 // object validations avoided by successful volume validations
	MissingStamp      int64 // reconnections where a volume had no stamp
	ObjValidations    int64 // individual object validations performed

	// Misses (§4.4).
	TransparentFetches int64 // misses serviced transparently
	DeferredMisses     int64 // misses returned to the user
	DisconnectedMisses int64 // misses while emulating

	// Trickle reintegration (Figure 14).
	ShippedBytes          int64 // CML record + fragment bytes successfully reintegrated
	ShippedRecords        int64
	Reintegrations        int64
	ReintegrationFailures int64
	// Delta shipping (EnableDeltas).
	DeltaStores     int64 // stores shipped as differences
	DeltaSavedBytes int64 // full-content bytes avoided by deltas

	// Group failover: abandoned member attempts (timeouts on generic
	// calls, any error on reintegration).
	Failovers int64

	// State transitions.
	Transitions map[string]int64
}

// New creates a Venus on conn talking to the cfg.Servers group and starts
// its daemons.
func New(clock simtime.Clock, conn netsim.PacketConn, cfg Config) *Venus {
	cfg.fillDefaults()
	v := &Venus{
		clock:    clock,
		cfg:      cfg,
		owner:    fmt.Sprintf("client-%d", cfg.ClientID),
		state:    Hoarding,
		volumes:  make(map[string]*vclient),
		volByID:  make(map[codafs.VolumeID]*vclient),
		hdb:      make(map[string]*HDBEntry),
		fetching: make(map[codafs.FID]bool),
		stopped:  make(chan struct{}),
	}
	v.cache = newCache(cfg.CacheBytes)
	// Metric handles must exist before the rpc2 node: NewNode serves its
	// conn, and on a real connection a server call may be dispatched the
	// instant the conn's reader is up.
	v.met = newVMetrics(cfg.Obs, v, conn.LocalAddr())
	v.node = rpc2.NewNode(clock, conn, netmon.NewMonitor(clock), v.handleServerCall, cfg.Obs)
	// Register every group member with the monitor up front, so gauges
	// and liveness cover members this client has not yet called.
	for _, addr := range v.cfg.Servers {
		v.node.Monitor().Peer(addr)
	}
	simtime.Every(clock, cfg.TrickleInterval, v.trickleTick)
	simtime.Every(clock, cfg.HoardInterval, v.hoardTick)
	if cfg.ProbeInterval > 0 {
		simtime.Every(clock, cfg.ProbeInterval, v.probeTick)
	}
	return v
}

// Addr returns this client's network address.
func (v *Venus) Addr() string { return v.node.Addr() }

// State returns the current operating state.
func (v *Venus) State() State {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.state
}

// Stats returns a snapshot of the counters, with a Transitions entry
// for each edge taken.
func (v *Venus) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	st := v.stats
	st.Transitions = make(map[string]int64)
	for from, row := range v.transitions {
		for to, n := range row {
			if n > 0 {
				st.Transitions[State(from).String()+"->"+State(to).String()] = n
			}
		}
	}
	return st
}

// count reads one Stats or transition count under v.mu, where every
// increment happens: the registry's func-backed series call it.
func (v *Venus) count(p *int64) int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return *p
}

// CacheStats describes cache occupancy, as shown at the bottom of the
// paper's Figure 6 screen ("Cache Space (KB): Allocated / Occupied /
// Available").
type CacheStats struct {
	AllocatedBytes int64
	OccupiedBytes  int64
	Objects        int
}

// Available returns the free cache space.
func (c CacheStats) Available() int64 { return c.AllocatedBytes - c.OccupiedBytes }

// CacheStats returns current cache occupancy.
func (v *Venus) CacheStats() CacheStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return CacheStats{
		AllocatedBytes: v.cfg.CacheBytes,
		OccupiedBytes:  v.cache.bytesUsed(),
		Objects:        v.cache.count(),
	}
}

// CMLBytes returns the total bytes awaiting reintegration across volumes.
func (v *Venus) CMLBytes() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var n int64
	for _, vc := range v.volumes {
		n += vc.log.Bytes()
	}
	return n
}

// CMLRecords returns the total record count awaiting reintegration.
func (v *Venus) CMLRecords() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, vc := range v.volumes {
		n += vc.log.Len()
	}
	return n
}

// OptimizedBytes returns cumulative bytes saved by CML optimizations.
func (v *Venus) OptimizedBytes() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var n int64
	for _, vc := range v.volumes {
		n += vc.log.SavedBytes()
	}
	return n
}

// Conflicts drains the list of reintegration conflicts for user review.
func (v *Venus) Conflicts() []Conflict {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := v.conflicts
	v.conflicts = nil
	return out
}

// Close stops Venus.
func (v *Venus) Close() {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return
	}
	v.closed = true
	close(v.stopped)
	v.mu.Unlock()
	v.node.Close()
}

func (v *Venus) isClosed() bool {
	select {
	case <-v.stopped:
		return true
	default:
		return false
	}
}

// volumeList returns the mounted volumes in name order, so that per-volume
// work (a stamp call, a drain goroutine) starts in the same order on every
// run. The caller holds v.mu.
func (v *Venus) volumeList() []*vclient {
	out := make([]*vclient, 0, len(v.volumes))
	for _, vc := range v.volumes {
		out = append(out, vc)
	}
	slices.SortFunc(out, func(a, b *vclient) int { return strings.Compare(a.info.Name, b.info.Name) })
	return out
}

// Mount attaches the named volume, fetching its description and root.
func (v *Venus) Mount(volume string) error {
	if len(v.cfg.Servers) == 0 {
		return fmt.Errorf("venus: mount %s: no servers configured", volume)
	}
	rep, err := callAny[wire.GetVolumeRep](v, wire.GetVolume{Name: volume}, rpc2.CallOpts{})
	if err != nil {
		return fmt.Errorf("venus: mount %s: %w", volume, err)
	}
	vc := &vclient{info: rep.Info, root: rep.Root.FID, log: cml.NewLog(),
		pref: v.defaultPref(uint64(rep.Info.ID)), drainTok: simtime.NewQueue[struct{}](v.clock)}
	vc.unlockDrain() // the queue starts empty: put the one token in
	// Fetch the root directory's entries eagerly: every resolution
	// starts there, and it is small.
	rootRep, err := callVol[wire.FetchRep](v, vc, wire.Fetch{FID: rep.Root.FID, WantCallback: true}, rpc2.CallOpts{})
	if err != nil {
		return fmt.Errorf("venus: mount %s: root fetch: %w", volume, err)
	}
	v.mu.Lock()
	if _, dup := v.volumes[volume]; dup {
		v.mu.Unlock()
		return nil
	}
	if v.cfg.DisableLogOptimize {
		vc.log.SetOptimize(false)
	}
	// Per-class cancellation accounting: the observer runs under the
	// log's mutex and only bumps pre-registered atomic counters.
	vc.log.SetCancelObserver(func(class cml.CancelClass, records int, bytes int64) {
		v.met.cancelRecs[class].Add(int64(records))
		v.met.cancelBytes[class].Add(bytes)
	})
	v.volumes[volume] = vc
	v.volByID[rep.Info.ID] = vc
	f := v.cache.install(&rootRep.Object, false)
	f.hasCallback = true
	v.mu.Unlock()
	// Each volume ages and reintegrates on its own schedule.
	v.clock.Go(func() { v.volumeTrickleLoop(vc) })
	return nil
}

// allocFID picks a fresh FID for a client-side creation in volume vol.
func (v *Venus) allocFID(vol codafs.VolumeID) codafs.FID {
	v.nextVnode++
	n := uint64(v.cfg.ClientID)<<32 | v.nextVnode
	return codafs.FID{Volume: vol, Vnode: n, Unique: n}
}

func (v *Venus) allocXfer() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.nextXfer++
	return v.nextXfer
}

// beginForeground marks a foreground network operation; trickle
// reintegration defers to it (§4.3.5).
func (v *Venus) beginForeground() {
	v.mu.Lock()
	v.foreground++
	v.mu.Unlock()
}

func (v *Venus) endForeground() {
	v.mu.Lock()
	v.foreground--
	v.mu.Unlock()
}

func (v *Venus) foregroundBusy() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.foreground > 0
}
