// Package scenario is a declarative experiment format for the Coda
// reproduction: one text file describes a deployment topology (replicated
// server groups, clients, volumes, seeded files, trace workloads), a
// schedule of timed steps (link changes, power cuts, kills, restarts,
// reintegration drains, trace replays), and a set of end-state assertions
// (byte-identical replicas, exact volume stamps, metric bounds from the
// obs registry dump). A runner compiles a scenario onto the existing
// simtime/netsim/crashfs/group machinery and executes it deterministically
// under its seed, so every experiment the paper's §5 describes — and every
// chaos variant of it — is a data file instead of a bespoke Go harness.
//
// Scenario files are line-oriented: one directive per line, '#' comments,
// Go-quoted strings for file contents. Topology directives come first,
// schedule steps follow in execution order, and assert directives may
// appear anywhere (they always run after the schedule). A file carrying
// matrix directives is a template: cmd/codascn's matrix command expands
// the cross product of its axes, substituting ${axis} in the body, into
// one concrete scenario per cell — the chaos matrix as generated data.
//
// The format is intentionally small. It covers what the repo's harnesses
// need (the grammar is in DESIGN.md §12); anything fancier should become
// a new step kind here, not a new Go harness.
package scenario

import "time"

// Scenario is one parsed scenario (or template, when Axes is non-empty).
type Scenario struct {
	Name string
	Doc  []string
	Seed int64

	// Axes are matrix sweep dimensions, in declaration order. A scenario
	// with axes is a template and cannot run directly; ExpandMatrix turns
	// it into runnable instances.
	Axes []Axis

	Groups  []GroupDecl
	Volumes []VolumeDecl
	Seeds   []SeedDecl
	Traces  []TraceDecl
	Clients []ClientDecl
	Mounts  []MountDecl

	Steps   []Step
	Asserts []Assert
}

// Axis is one matrix sweep dimension.
type Axis struct {
	Name   string
	Values []string
}

// GroupDecl declares a replicated server group. Members are named
// <name>0 .. <name>{n-1}; those names are the servers' network addresses
// and what schedule steps (kill, restart, crash-arm) refer to.
type GroupDecl struct {
	Line    int
	Name    string
	Members int
	// Journal attaches a crashfs.Mem-backed WAL to every member, which
	// is what crash-arm and restart steps manipulate.
	Journal bool
}

// VolumeDecl places a volume on a group.
type VolumeDecl struct {
	Line  int
	Name  string
	Group string // empty: the first declared group
}

// SeedDecl pre-populates server state before any client attaches.
type SeedDecl struct {
	Line   int
	Volume string
	Path   string // volume-relative
	Data   []byte // nil when Dir
	Dir    bool
}

// TraceDecl generates a synthetic workload trace from one of the paper's
// calibrated segment presets and seeds its universe onto the group that
// carries the trace's volume ("usr"). Replay steps refer to it by name.
type TraceDecl struct {
	Line     int
	Name     string
	Segment  string
	ScalePct int           // 0: 100
	Lambda   time.Duration // replay think threshold λ (0: 1s)
	OpCost   time.Duration // per-op client cost (0: 3ms)
}

// ClientDecl declares a Venus client.
type ClientDecl struct {
	Line         int
	Name         string
	ID           uint32
	Group        string // AVSG the client talks to (empty: first group)
	CacheBytes   int64
	Aging        time.Duration
	Trickle      time.Duration
	ChunkSeconds int
	PinWD        bool // PinWriteDisconnected
}

// MountDecl mounts a volume on a client at schedule start.
type MountDecl struct {
	Line   int
	Client string
	Volume string
}

// StepKind enumerates schedule step types.
type StepKind string

// Schedule step kinds.
const (
	StepAt          StepKind = "at"         // advance cursor to absolute offset
	StepAfter       StepKind = "after"      // advance cursor by a delta
	StepWrite       StepKind = "write"      // client file write
	StepMkdir       StepKind = "mkdir"      // client mkdir
	StepRemove      StepKind = "remove"     // client remove
	StepRead        StepKind = "read"       // client read (optional expect)
	StepDisconnect  StepKind = "disconnect" // client: force Emulating
	StepWriteDisc   StepKind = "write-disconnect"
	StepConnect     StepKind = "connect"     // client: reconnect (optional bw hint)
	StepHoard       StepKind = "hoard"       // add an HDB entry
	StepHoardWalk   StepKind = "hoard-walk"  // run a hoard walk
	StepReintegrate StepKind = "reintegrate" // ForceReintegrate
	StepLink        StepKind = "link"        // reconfigure client↔server links
	StepFlap        StepKind = "flap"        // schedule N down/up link cycles
	StepKill        StepKind = "kill"        // close a server in place
	StepCrashArm    StepKind = "crash-arm"   // arm a power cut on a journal write
	StepRestart     StepKind = "restart"     // reboot a server from its journal
	StepConverge    StepKind = "converge"    // group-wide anti-entropy
	StepDrain       StepKind = "drain"       // wait until the client CML is empty
	StepReplay      StepKind = "replay"      // replay a declared trace
)

// LinkMode says what a link step does.
type LinkMode string

// Link step modes.
const (
	LinkUp      LinkMode = "up"
	LinkDown    LinkMode = "down"
	LinkProfile LinkMode = "profile"
	LinkParams  LinkMode = "params"
)

// Step is one schedule entry. Fields are a union over kinds; Kind decides
// which are meaningful (the parser only fills the relevant ones).
type Step struct {
	Line int
	Kind StepKind

	Client  string
	Target  string // server or group name (link, flap, kill, crash-arm, restart, converge)
	Path    string
	Data    []byte
	Expect  []byte // read: expected content (nil: existence only)
	HasData bool   // write/read carry content
	N       int64  // zeros size, bw, crash-arm count, flap count, hoard priority
	Dur     time.Duration
	Mode    LinkMode
	Profile string // link profile name
	Latency time.Duration
	From    string // restart: catch-up peer
	Flag    bool   // hoard: children
}

// AssertKind enumerates assertion types.
type AssertKind string

// Assertion kinds.
const (
	AssertIdentical  AssertKind = "identical"   // byte-identical SaveState across a group
	AssertFile       AssertKind = "file"        // server-side file content on every member
	AssertClientFile AssertKind = "client-file" // content read through a client
	AssertCMLEmpty   AssertKind = "cml-empty"   // client CML fully reintegrated
	AssertStamp      AssertKind = "stamp"       // exact volume version stamp on every member
	AssertMetric     AssertKind = "metric"      // bound on a series in the final obs dump
	AssertFailovers  AssertKind = "failovers"   // client failover count bound
	AssertElapsed    AssertKind = "elapsed"     // schedule elapsed sim-time bound
	AssertState      AssertKind = "state"       // client end state (hoarding, emulating, ...)
	AssertSpans      AssertKind = "spans"       // bound on traced spans (count or total duration)
)

// Assert is one end-state check.
type Assert struct {
	Line int
	Kind AssertKind

	Client string
	Target string // group or server
	Volume string
	Path   string
	Data   []byte

	Metric string      // metric name; span name for spans asserts
	Labels [][2]string // required label subset, sorted by key

	Op  string // == != <= >= < >
	N   int64
	Dur time.Duration

	State string // client state; "count" or "dur" for spans asserts
}

// IsTemplate reports whether s declares matrix axes and therefore needs
// expansion before it can run.
func (s *Scenario) IsTemplate() bool { return len(s.Axes) > 0 }
