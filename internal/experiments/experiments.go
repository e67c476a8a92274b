// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated substrate. Each FigureN function builds
// the worlds it needs (server, network emulator, Venus clients), runs the
// experiment on virtual time, and returns a typed result whose Render
// method prints rows in the paper's format. cmd/codabench calls these;
// EXPERIMENTS.md records the outputs next to the paper's numbers.
package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/venus"
	"repro/internal/world"
)

// Options control experiment scale.
type Options struct {
	// Seed drives all randomness; trials use Seed, Seed+1, ...
	Seed int64
	// Trials per cell (default 5, as in the paper).
	Trials int
	// Quick shrinks workloads for unit tests and benchmarks: fewer
	// trials, smaller transfers, shorter simulated spans. Tables keep
	// their shape but not their precision.
	Quick bool
}

func (o *Options) fill() {
	if o.Trials == 0 {
		if o.Quick {
			o.Trials = 2
		} else {
			o.Trials = 5
		}
	}
}

// deployment is the figures' usual world: one server, named "server",
// and any number of clients. Every component registers its metrics in
// the world's registry (handles carry node labels, so they coexist
// without name collisions); figures dump it at the end of a run, before
// teardown, so their tests can pin the metrics next to the series.
type deployment struct {
	*world.World
	grp *world.Group
	srv *server.Server
}

func newWorld(seed int64) *deployment {
	w := world.New(seed)
	grp := w.Group(false, "server")
	return &deployment{World: w, grp: grp, srv: grp.Member(0)}
}

func (w *deployment) venus(name string, cfg venus.Config) *venus.Venus {
	return w.Client(name, w.grp, cfg)
}

// RegistrySnapshot is one deterministic obs.Registry dump captured at the
// end of an experiment run, with a digest of the same registry's span
// trace for the determinism test to compare.
type RegistrySnapshot struct {
	Label string
	Dump  []byte

	traceSum [sha256.Size]byte
}

// snapshot captures reg's dump and trace digest under label.
func snapshot(label string, reg *obs.Registry) RegistrySnapshot {
	return RegistrySnapshot{Label: label, Dump: reg.Dump(), traceSum: sha256.Sum256(reg.ExportTrace())}
}

// ObsSnapshots is embedded in the results of the figures that run
// simulated worlds (1, 8, 9, 12). It is not part of Render output; it
// exists so the same run that produced a figure also yields its registry
// dumps, which the figure tests pin series from.
type ObsSnapshots struct {
	Snapshots []RegistrySnapshot
}

// addSnapshot appends reg's dump under label. Worlds call it at the end
// of their run, before teardown.
func (o *ObsSnapshots) addSnapshot(label string, reg *obs.Registry) {
	o.Snapshots = append(o.Snapshots, snapshot(label, reg))
}

func (w *deployment) setLink(client string, p netsim.Profile) {
	w.Net.SetLink(client, "server", p.Params())
}

// mustVol creates a volume during experiment setup. The sim is
// deterministic, so a failure means the experiment itself is broken;
// panicking beats silently regenerating a figure from a half-built
// world.
func (w *deployment) mustVol(name string) {
	if _, err := w.srv.CreateVolume(name); err != nil {
		panic(fmt.Sprintf("experiment setup: create volume %s: %v", name, err))
	}
}

// mustWrite writes a server-side file during experiment setup.
func (w *deployment) mustWrite(vol, relPath string, data []byte) {
	if _, err := w.srv.WriteFile(vol, relPath, data); err != nil {
		panic(fmt.Sprintf("experiment setup: write %s/%s: %v", vol, relPath, err))
	}
}

// meanStd returns the mean and (population) standard deviation of xs.
func meanStd(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	sd = math.Sqrt(sd / float64(len(xs)))
	return mean, sd
}

// table is a small fixed-width text table builder for Render methods.
type table struct {
	b      strings.Builder
	widths []int
}

func newTable(widths ...int) *table { return &table{widths: widths} }

func (t *table) row(cells ...string) {
	for i, c := range cells {
		w := 12
		if i < len(t.widths) {
			w = t.widths[i]
		}
		fmt.Fprintf(&t.b, "%-*s", w, c)
	}
	t.b.WriteByte('\n')
}

func (t *table) line() {
	n := 0
	for _, w := range t.widths {
		n += w
	}
	t.b.WriteString(strings.Repeat("-", n))
	t.b.WriteByte('\n')
}

func (t *table) String() string { return t.b.String() }

func kb(n int64) string { return fmt.Sprintf("%d", (n+512)/1024) }

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
