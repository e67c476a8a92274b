// Package server implements the Coda file server of the reproduction.
//
// A Server exports volumes of objects to Venus clients over rpc2/wire. It
// maintains the two granularities of cache-coherence state from §4.2:
// per-object version stamps with object callbacks, and per-volume version
// stamps with volume callbacks. Any update to an object bumps both its own
// version and its volume's stamp, and breaks the callbacks other clients
// hold on the object and on the volume.
//
// Reintegration (§4.3) is atomic: a chunk of CML records is validated and
// staged in the volume's objects with an undo list, all or nothing, so a
// failure — conflict, crash, or network loss — leaves no server state
// that would hinder a retry.
// Large files arrive ahead of reintegration as resumable fragments
// (§4.3.5); the server assembles them and only then lets the Reintegrate
// that references them proceed, the reverse of the strong-connectivity
// ordering, exactly as the paper argues.
//
// Concurrency model: the volume is the locking unit, matching §4.3.3's
// observation that reintegration is applied per-volume. Each volume is an
// independent concurrency domain behind its own mutex; the Server itself
// only serializes the narrow shared structures around the domains — the
// volume registry and the fragment buffers — each behind its own lock.
// The lock hierarchy is registry → volume, never reversed; when several
// volume locks are needed at once (persistence snapshots) they are taken
// in ascending volume-ID order. RPCs are never issued while holding any
// server lock. See DESIGN.md §8.
package server

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cml"
	"repro/internal/codafs"
	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/simtime"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Maintenance policy. The sweeper bounds the state a remote peer can
// abandon: fragment buffers from transfers that died mid-shipment.
const (
	// sweepInterval is how often the maintenance sweep runs.
	sweepInterval = 5 * time.Minute
	// fragTTL is how long a fragment buffer survives without the client
	// appending to it. Weakly-connected clients legitimately pause
	// mid-transfer (disconnections, foreground deference), so this is
	// generous; a client that outlives it restarts from offset zero.
	fragTTL = 6 * time.Hour
)

// Server is one Coda file server.
type Server struct {
	clock simtime.Clock
	node  *rpc2.Node
	obs   *obs.Registry // nil unless WithObs; nil is fully inert
	addr  string        // the server's own address, span node label
	met   smetrics

	stats   counters      // atomics: bumped from any domain without a lock
	stopped chan struct{} // closed by Close; stops the maintenance sweep
	closer  sync.Once

	// peers are the replica group members this server pushes committed
	// log entries to (ShipLog) and pulls missed suffixes from (FetchLog).
	// Immutable after New; empty means unreplicated.
	peers []string

	// divergenceHook fires once per locally-detected divergence event
	// (ErrDiverged). Immutable after New; nil means no observer. Called
	// without server locks held beyond the detecting site's own.
	divergenceHook func()

	// mu guards the volume registry — the maps locating a volume domain
	// and the ID allocator — and nothing inside the domains themselves.
	// Lock order: mu before any volume.mu; never acquire mu while holding
	// a volume lock.
	mu        sync.Mutex
	volumes   map[codafs.VolumeID]*volume
	byName    map[string]codafs.VolumeID
	nextVolID codafs.VolumeID
	journal   *JournalOptions // where the snapshot and volume WALs live; nil until AttachJournal

	// fragMu guards the resumable fragment buffers (§4.3.5). Not nested
	// with any other server lock.
	fragMu sync.Mutex
	frags  map[fragKey]*fragBuf
}

// counters holds the activity counters behind Stats, each event's one
// count (the registry reads them too). All are atomics so any handler,
// in any volume domain, may bump them without synchronizing.
type counters struct {
	calls              atomic.Int64
	reintegrations     atomic.Int64
	reintegrationFails atomic.Int64
	recordsApplied     atomic.Int64
	conflicts          atomic.Int64
	breaksSent         atomic.Int64
	duplicatesDropped  atomic.Int64
	replApplied        atomic.Int64
	catchupRecords     atomic.Int64
}

// Stats counts server activity, for tests and experiments.
type Stats struct {
	Calls              int64
	Reintegrations     int64
	ReintegrationFails int64
	RecordsApplied     int64
	Conflicts          int64
	BreaksSent         int64
	// DuplicatesDropped counts reintegrated records filtered by the
	// (client, sequence-number) dedup set — retransmits after failover.
	DuplicatesDropped int64
	// ReplApplied counts records applied from peer-shipped log entries.
	ReplApplied int64
	// CatchupRecords counts records pulled from a peer via FetchLog.
	CatchupRecords int64
}

// smetrics holds the server's pre-registered obs handles for events Stats
// does not count; all nil (and inert) without WithObs.
type smetrics struct {
	self     obs.Label
	lockWait *obs.Histogram

	replShipped   *obs.Counter // log entries pushed to peers
	replGaps      *obs.Counter // shipped entries refused pending catch-up
	catchupBytes  *obs.Counter // journal-payload bytes pulled via FetchLog
	catchupRounds *obs.Counter // FetchLog round trips issued
}

// lockWaitBucketsUS buckets volume-lock acquisition waits (microseconds).
// Under simtime a blocked goroutine does not advance the clock, so sim
// runs observe zero — the histogram is a live-deployment signal.
var lockWaitBucketsUS = []int64{10, 100, 1_000, 10_000, 100_000, 1_000_000}

// initMetrics pre-registers the server's obs handles. It must run
// before the rpc2 node exists: NewNode serves its conn, and on a real
// connection a request may reach handle — which reads s.met — the
// instant the conn's reader is up. The Stats counts register as
// CounterFuncs over s.stats: a restarted server's series restart with it.
func (s *Server) initMetrics(addr string) {
	node := obs.L("node", addr)
	s.met = smetrics{
		self:     node,
		lockWait: s.obs.Histogram("server_lock_wait_us", lockWaitBucketsUS, node),

		replShipped:   s.obs.Counter("server_repl_shipped_entries_total", node),
		replGaps:      s.obs.Counter("server_repl_gaps_total", node),
		catchupBytes:  s.obs.Counter("server_catchup_bytes_total", node),
		catchupRounds: s.obs.Counter("server_catchup_rounds_total", node),
	}
	if s.obs == nil {
		return // a method value escapes to the heap even for a nil registry
	}
	s.obs.CounterFunc("server_calls_total", s.stats.calls.Load, node)
	s.obs.CounterFunc("server_reintegrations_total", s.stats.reintegrations.Load, node)
	s.obs.CounterFunc("server_reintegration_failures_total", s.stats.reintegrationFails.Load, node)
	s.obs.CounterFunc("server_records_applied_total", s.stats.recordsApplied.Load, node)
	s.obs.CounterFunc("server_conflicts_total", s.stats.conflicts.Load, node)
	s.obs.CounterFunc("server_callback_breaks_total", s.stats.breaksSent.Load, node)
	s.obs.CounterFunc("server_repl_applied_records_total", s.stats.replApplied.Load, node)
	s.obs.CounterFunc("server_repl_duplicate_records_total", s.stats.duplicatesDropped.Load, node)
	s.obs.CounterFunc("server_catchup_records_total", s.stats.catchupRecords.Load, node)
	s.obs.GaugeFunc("server_fragment_buffers", func() int64 { return int64(s.FragmentCount()) }, node)
}

// observeOp counts one dispatched RPC by request type, naming the type
// only when a registry will count it.
func (s *Server) observeOp(req any) {
	if s.obs == nil {
		return
	}
	op := strings.TrimPrefix(fmt.Sprintf("%T", req), "wire.")
	s.obs.Counter("server_ops_total", s.met.self, obs.L("op", op)).Inc()
}

// observeVolOp counts one operation entering a volume domain. The name is
// immutable once the volume is published, so no lock is needed.
func (s *Server) observeVolOp(v *volume) {
	if s.obs == nil {
		return
	}
	s.obs.Counter("server_volume_ops_total", s.met.self, obs.L("volume", v.info.Name)).Inc()
}

// lockVolume acquires v.mu, recording the wait on the lock-wait histogram.
func (s *Server) lockVolume(v *volume) {
	start := s.clock.Now()
	v.mu.Lock()
	s.met.lockWait.Observe(s.clock.Now().Sub(start).Microseconds())
}

// volume is one concurrency domain: every piece of per-volume state —
// objects, version stamps, authorship, and callback registrations — lives
// behind its mu, so operations on distinct volumes never contend.
type volume struct {
	mu        sync.Mutex
	info      codafs.VolumeInfo
	root      codafs.FID
	objects   map[codafs.FID]*codafs.Object
	nextVnode uint64

	// lastAuthor remembers which client produced each object's current
	// version; a reintegrating client is not in conflict with its own
	// earlier chunks (the storeid rule).
	lastAuthor map[codafs.FID]string

	// objCallbacks and volCallbacks are the callback promises. No sweep
	// touches them: a silent client may merely be disconnected, and its
	// promises are reclaimed object by object as updates break them.
	objCallbacks map[codafs.FID]map[string]bool
	volCallbacks map[string]bool

	// log journals this volume's applied mutation batches; its LSN is the
	// last framed entry (it advances with or without a WAL attached: the
	// LSN sequence is also the replication order). Guarded by mu.
	log wal.Journal
	// journaledBytes totals the payloads framed since boot; catch-up
	// reads the growth across a round for its bytes counter.
	journaledBytes int64
	// Replication state (see repl.go), guarded by mu. chain is the
	// cumulative CRC32C over the exact journal payload bytes through
	// the log's LSN — replicas with equal chains at equal LSNs hold
	// byte-identical logs. With retainLog — set when the volume is
	// published, on a server that has peers — repl retains the log suffix
	// after (replBaseLSN, replBaseChain) for ShipLog pushes and FetchLog
	// pulls; the base is the watermark of the image the process booted
	// from (zero without one) and nothing trims the suffix while the
	// process lives. Without retainLog repl stays empty and the base
	// follows the tail. applied is the (client, CML sequence) dedup set
	// that makes failover retransmits idempotent.
	retainLog     bool
	chain         uint32
	replBaseLSN   uint64
	replBaseChain uint32
	repl          []wire.LogEntry
	applied       map[appliedKey]bool

	// shippedLSN is the last entry pushed to peers. shipTok is a
	// one-token queue serializing ship/catch-up rounds so entries leave
	// in LSN order; it is a simtime.Queue rather than a mutex because
	// the holder blocks in peer RPCs, and a goroutine parked on a bare
	// mutex is invisible to the sim scheduler and would stall virtual
	// time. Lazily created (needs the clock); guarded by mu. Order:
	// token before mu (the holder takes mu only briefly).
	shippedLSN uint64
	shipTok    *simtime.Queue[struct{}]

	// overlay stages the volume's batches (apply.go), made on the first
	// batch and reused by every later one. Guarded by mu.
	overlay applyCtx
}

type fragKey struct {
	client   string
	transfer uint64
}

type fragBuf struct {
	total      int64     // every fragment repeats the first one's
	data       []byte    // the contiguous prefix received; cap ≤ min(4 × len, total)
	lastActive time.Time // last append, for the TTL sweep
}

// Option configures a Server at construction.
type Option func(*Server)

// WithObs injects the observability registry the server (and its rpc2
// node) registers metrics with.
func WithObs(reg *obs.Registry) Option {
	return func(s *Server) { s.obs = reg }
}

// WithPeers names the other members of this server's replica group —
// all of them: an entry this server accepts from a client is pushed once
// to each peer (ShipLog) and never relayed by them, and a lagging or
// restarted server pulls missed suffixes back from a peer (CatchUp).
func WithPeers(addrs ...string) Option {
	return func(s *Server) { s.peers = append([]string(nil), addrs...) }
}

// WithDivergenceHook registers fn to run once per locally-detected
// replica divergence event (an error wrapping ErrDiverged at an apply
// or fetch site). The group layer uses it to surface divergence as a
// counter; fn must be cheap and must not call back into the server.
func WithDivergenceHook(fn func()) Option {
	return func(s *Server) { s.divergenceHook = fn }
}

// New creates a server listening on conn.
func New(clock simtime.Clock, conn netsim.PacketConn, opts ...Option) *Server {
	s := &Server{
		clock:   clock,
		stopped: make(chan struct{}),
		volumes: make(map[codafs.VolumeID]*volume),
		byName:  make(map[string]codafs.VolumeID),
		frags:   make(map[fragKey]*fragBuf),
	}
	for _, o := range opts {
		o(s)
	}
	s.addr = conn.LocalAddr()
	s.initMetrics(conn.LocalAddr())
	s.node = rpc2.NewNode(clock, conn, netmon.NewMonitor(clock), s.handle, s.obs)
	simtime.Every(clock, sweepInterval, s.sweep)
	return s
}

// Addr returns the server's network address.
func (s *Server) Addr() string { return s.node.Addr() }

// Node exposes the server's RPC node (for tests).
func (s *Server) Node() *rpc2.Node { return s.node }

// Stats returns a snapshot of activity counters.
func (s *Server) Stats() Stats {
	return Stats{
		Calls:              s.stats.calls.Load(),
		Reintegrations:     s.stats.reintegrations.Load(),
		ReintegrationFails: s.stats.reintegrationFails.Load(),
		RecordsApplied:     s.stats.recordsApplied.Load(),
		Conflicts:          s.stats.conflicts.Load(),
		BreaksSent:         s.stats.breaksSent.Load(),
		DuplicatesDropped:  s.stats.duplicatesDropped.Load(),
		ReplApplied:        s.stats.replApplied.Load(),
		CatchupRecords:     s.stats.catchupRecords.Load(),
	}
}

// FragmentCount returns the number of live fragment buffers.
func (s *Server) FragmentCount() int {
	s.fragMu.Lock()
	defer s.fragMu.Unlock()
	return len(s.frags)
}

// Close shuts the server down.
func (s *Server) Close() {
	s.closer.Do(func() { close(s.stopped) })
	s.node.Close()
}

// ---- Registry access ----

// volByID resolves a volume domain under the registry lock.
func (s *Server) volByID(id codafs.VolumeID) (*volume, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.volumes[id]
	return v, ok
}

// volByName resolves a volume domain by name under the registry lock.
func (s *Server) volByName(name string) (*volume, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.byName[name]
	if !ok {
		return nil, false
	}
	return s.volumes[id], true
}

// volumesByID snapshots the registry in ascending volume-ID order — the
// canonical order in which multiple volume locks may be acquired.
func (s *Server) volumesByID() []*volume {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedByID(s.volumes)
}

// sortedByID lists vols in ascending volume-ID order, for a caller that
// goes on to take their locks (SaveState, checkpointLocked); the caller
// holds s.mu when vols is the registry.
func sortedByID(vols map[codafs.VolumeID]*volume) []*volume {
	out := make([]*volume, 0, len(vols))
	for _, v := range vols {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id() < out[j].id() })
	return out
}

// publishLocked enters v into the registry, deciding as it does whether
// the volume retains its log suffix: only a server with peers can be
// asked for one. Caller holds s.mu.
func (s *Server) publishLocked(v *volume) {
	v.retainLog = len(s.peers) > 0
	s.volumes[v.id()] = v
	s.byName[v.info.Name] = v.id()
}

// id returns the volume's immutable identifier. The ID is assigned before
// the volume is published in the registry and never changes, so it may be
// read without the volume lock (it is what the lock order is keyed on).
func (v *volume) id() codafs.VolumeID { return v.info.ID }

// ---- Maintenance sweep ----

// sweep reclaims abandoned fragment buffers every sweepInterval, until
// the first tick after Close.
func (s *Server) sweep() bool {
	select {
	case <-s.stopped:
		return false
	default:
	}
	s.sweepFrags()
	return true
}

// sweepFrags drops fragment buffers whose transfer has gone idle past
// fragTTL. A client that resumes afterwards is told Received: 0 and
// restarts the shipment (§4.3.5's resumability is best-effort).
func (s *Server) sweepFrags() {
	now := s.clock.Now()
	s.fragMu.Lock()
	defer s.fragMu.Unlock()
	for k, fb := range s.frags {
		if now.Sub(fb.lastActive) > fragTTL {
			delete(s.frags, k)
		}
	}
}

// ---- Administrative (non-RPC) interface ----

// newVolume builds an empty volume with a root directory created at
// modTime.
func newVolume(id codafs.VolumeID, name string, modTime time.Time) *volume {
	v := &volume{
		info:         codafs.VolumeInfo{ID: id, Name: name, Stamp: 1},
		nextVnode:    1,
		objects:      make(map[codafs.FID]*codafs.Object),
		lastAuthor:   make(map[codafs.FID]string),
		objCallbacks: make(map[codafs.FID]map[string]bool),
		volCallbacks: make(map[string]bool),
		applied:      make(map[appliedKey]bool),
	}
	root := codafs.FID{Volume: id, Vnode: 1, Unique: 1}
	v.root = root
	v.objects[root] = &codafs.Object{
		Status: codafs.Status{
			FID: root, Type: codafs.Directory, Version: 1,
			ModTime: modTime, Mode: 0755, Owner: "root",
		},
		Children: make(map[string]codafs.FID),
	}
	return v
}

// CreateVolume creates an empty volume with a root directory. With a
// journal attached, the creation is durable before it is visible.
func (s *Server) CreateVolume(name string) (codafs.VolumeInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byName[name]; dup {
		return codafs.VolumeInfo{}, fmt.Errorf("server: volume %q exists", name)
	}
	v := newVolume(s.nextVolID+1, name, s.clock.Now())
	//codalint:ignore lockhold a creation is a checkpoint: the registry lock holds off other creations and checkpoints until the image holding v is durable
	if err := s.journalCreateLocked(v); err != nil {
		return codafs.VolumeInfo{}, fmt.Errorf("server: create volume %q: journal: %w", name, err)
	}
	s.nextVolID = v.id()
	s.publishLocked(v)
	return v.info, nil
}

// WriteFile creates or replaces a file at relPath inside the named volume,
// creating intermediate directories. It acts as an anonymous co-located
// client: its records take the update pipeline, so versions are bumped
// and callbacks broken, which is how the experiments inject "another
// client updated the volume" events (Fig 9), but they are not journaled
// or replicated. data is copied, and the caller's again on return
// (codafs.Object).
func (s *Server) WriteFile(volName, relPath string, data []byte) (codafs.Status, error) {
	return s.writeObject(volName, relPath, cml.Create, append([]byte(nil), data...), "")
}

// MakeDir creates a directory (and parents) inside the named volume.
func (s *Server) MakeDir(volName, relPath string) (codafs.Status, error) {
	return s.writeObject(volName, relPath, cml.Mkdir, nil, "")
}

// MakeSymlink creates a symlink at relPath pointing at target.
func (s *Server) MakeSymlink(volName, relPath, target string) (codafs.Status, error) {
	return s.writeObject(volName, relPath, cml.MakeSymlink, nil, target)
}

// Resolve walks relPath within the named volume and returns the object's
// status. An empty relPath names the volume root.
func (s *Server) Resolve(volName, relPath string) (codafs.Status, error) {
	st, _, err := s.lookup(volName, relPath)
	return st, err
}

// ReadFile returns a file's contents, server-side.
func (s *Server) ReadFile(volName, relPath string) ([]byte, error) {
	st, data, err := s.lookup(volName, relPath)
	if err != nil {
		return nil, err
	}
	if st.Type != codafs.File {
		return nil, fmt.Errorf("server: %s/%s is a %s", volName, relPath, st.Type)
	}
	return append([]byte(nil), data...), nil
}

// lookup walks relPath from the named volume's root and returns the
// object's status and contents, both read under v.mu: commitApply bumps
// a base object's version in place. Contents are never written through
// (codafs.Object), so the slice may be read after the lock is released.
func (s *Server) lookup(volName, relPath string) (codafs.Status, []byte, error) {
	v, comps, err := s.splitPath(volName, relPath)
	if err != nil {
		return codafs.Status{}, nil, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	o := v.objects[v.root]
	for _, c := range comps {
		if o.Status.Type != codafs.Directory {
			return codafs.Status{}, nil, fmt.Errorf("server: %s is not a directory", c)
		}
		fid, ok := o.Children[c]
		if !ok {
			return codafs.Status{}, nil, fmt.Errorf("server: %s not found", c)
		}
		if o = v.objects[fid]; o == nil {
			return codafs.Status{}, nil, fmt.Errorf("server: dangling entry %s/%s", volName, relPath)
		}
	}
	return o.Status, o.Data, nil
}

// VolumeStamp returns the named volume's current stamp.
func (s *Server) VolumeStamp(volName string) (uint64, error) {
	v, ok := s.volByName(volName)
	if !ok {
		return 0, fmt.Errorf("server: no volume %q", volName)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.info.Stamp, nil
}

// writeObject runs an administrative write as the anonymous client "",
// through the update pipeline without its journal (commitBatchLocked):
// one Mkdir batch for each directory missing on the way, then one batch
// for the object itself — kind is Create for a file, Mkdir or
// MakeSymlink. One batch per path component stamps versions as one
// update per object would. A refused record is returned as the error;
// the batches before it stay committed.
func (s *Server) writeObject(volName, relPath string, kind cml.Kind, data []byte, target string) (codafs.Status, error) {
	v, comps, err := s.splitPath(volName, relPath)
	if err != nil {
		return codafs.Status{}, err
	}
	if len(comps) == 0 {
		return codafs.Status{}, fmt.Errorf("server: path names the volume root")
	}
	now := s.clock.Now()
	var st codafs.Status
	var breaks []breakWork
	v.mu.Lock()
	dir := v.root
	for i, name := range comps {
		fid, exists := v.objects[dir].Children[name]
		last := i == len(comps)-1
		var batch []cml.Record
		switch {
		case !last && exists:
			dir = fid
			continue
		case !last:
			batch = []cml.Record{{Kind: cml.Mkdir, FID: v.allocFIDLocked(), Parent: dir, Name: name}}
		case kind != cml.Create:
			batch = []cml.Record{{Kind: kind, FID: v.allocFIDLocked(), Parent: dir, Name: name, Target: target}}
		case exists: // a file stored over at its current version
			batch = []cml.Record{{Kind: cml.Store, FID: fid, PrevVersion: v.objects[fid].Status.Version}}
		default:
			fid = v.allocFIDLocked()
			batch = []cml.Record{{Kind: cml.Create, FID: fid, Parent: dir, Name: name}, {Kind: cml.Store, FID: fid}}
		}
		for j := range batch {
			batch[j].ModTime, batch[j].Owner = now, "root"
			if batch[j].Kind == cml.Store {
				batch[j].Data, batch[j].Length = data, int64(len(data))
			}
		}
		failed, res, statuses, b := commitBatchLocked(v, "", batch)
		breaks = append(breaks, b...)
		if failed >= 0 {
			err = fmt.Errorf("server: %s", res.Msg)
			break
		}
		st, dir = statuses[0], batch[0].FID
	}
	v.mu.Unlock()
	s.dispatchBreaks(breaks)
	return st, err
}

// splitPath resolves the named volume's domain and splits relPath into
// components. Pure registry work: no volume lock is taken.
func (s *Server) splitPath(volName, relPath string) (*volume, []string, error) {
	v, ok := s.volByName(volName)
	if !ok {
		return nil, nil, fmt.Errorf("server: no volume %q", volName)
	}
	_, comps, err := codafs.SplitPath(codafs.JoinPath(volName, relPath))
	if err != nil {
		return nil, nil, err
	}
	return v, comps, nil
}

// allocFIDLocked allocates a fresh FID. Caller holds v.mu.
func (v *volume) allocFIDLocked() codafs.FID {
	v.nextVnode++
	return codafs.FID{Volume: v.info.ID, Vnode: v.nextVnode, Unique: v.nextVnode}
}

// registerObjCallbackLocked grants client a callback on fid. Caller holds
// v.mu.
func (v *volume) registerObjCallbackLocked(fid codafs.FID, client string) {
	cbs := v.objCallbacks[fid]
	if cbs == nil {
		cbs = make(map[string]bool)
		v.objCallbacks[fid] = cbs
	}
	cbs[client] = true
}

// breakWork is a set of clients to notify about one invalidation.
type breakWork struct {
	fid     codafs.FID
	volID   codafs.VolumeID
	objTo   []string
	volTo   []string
	hasWork bool
}

// collectBreaksLocked gathers and clears the callback registrations that an
// update to fid invalidates, excluding the updating client. Caller holds
// v.mu; the returned work is dispatched after the lock is released.
func (v *volume) collectBreaksLocked(fid codafs.FID, updater string) breakWork {
	w := breakWork{fid: fid, volID: v.info.ID}
	if cbs := v.objCallbacks[fid]; cbs != nil {
		for c := range cbs {
			if c != updater {
				w.objTo = append(w.objTo, c)
				delete(cbs, c)
				w.hasWork = true
			}
		}
	}
	for c := range v.volCallbacks {
		if c != updater {
			w.volTo = append(w.volTo, c)
			delete(v.volCallbacks, c)
			w.hasWork = true
		}
	}
	return w
}

// dispatchBreaks delivers callback breaks asynchronously; a client updating
// an object never waits on other clients' notifications (first design
// principle: don't punish strongly-connected clients). Callers must not
// hold any server or volume lock: the RPCs go out on fresh goroutines, and
// no lock is required to start them.
func (s *Server) dispatchBreaks(work []breakWork) {
	// Coalesce per destination client.
	type agg struct {
		fids map[codafs.FID]bool
		vols map[codafs.VolumeID]bool
	}
	byClient := make(map[string]*agg)
	get := func(c string) *agg {
		a := byClient[c]
		if a == nil {
			a = &agg{fids: make(map[codafs.FID]bool), vols: make(map[codafs.VolumeID]bool)}
			byClient[c] = a
		}
		return a
	}
	for _, w := range work {
		if !w.hasWork {
			continue
		}
		for _, c := range w.objTo {
			get(c).fids[w.fid] = true
		}
		for _, c := range w.volTo {
			get(c).vols[w.volID] = true
		}
	}
	// In sorted order throughout: the breaks start in Go order, which
	// orders the server's sends, and a break's bytes are its lists'.
	clients := make([]string, 0, len(byClient))
	for c := range byClient {
		clients = append(clients, c)
	}
	slices.Sort(clients)
	for _, client := range clients {
		a := byClient[client]
		brk := wire.CallbackBreak{}
		for f := range a.fids {
			brk.FIDs = append(brk.FIDs, f)
		}
		slices.SortFunc(brk.FIDs, codafs.FID.Compare)
		for v := range a.vols {
			brk.Volumes = append(brk.Volumes, v)
		}
		slices.Sort(brk.Volumes)
		s.stats.breaksSent.Add(1)
		s.clock.Go(func() {
			// Best effort: an unreachable client revalidates later.
			_, _ = wire.Call[wire.CallbackBreakRep](s.node, client, brk, rpc2.CallOpts{MaxRetries: 2})
		})
	}
}
