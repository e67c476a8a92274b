// Package obs is the repository's deterministic observability layer: a
// stdlib-only metrics registry (counters, gauges, histograms with fixed
// buckets, and func-backed counters and gauges that read a count or
// level a component keeps itself) plus a bounded table of causal spans
// (span.go), its one event model: a point event such as a Venus state
// transition is a zero-duration span. Each event is counted once: where
// a component already keeps a count (its Stats), the registry reads
// that field through CounterFunc instead of holding a second one.
// Every timestamp comes from the injected simtime clock, Dump sorts by
// content and Spans keeps the kernel's recording order, so two identical
// seeded sim runs produce byte-identical output — the same determinism contract codalint
// enforces for the rest of the tree.
//
// Registration is by injection: a *Registry is handed to constructors
// (rpc2.NewNode, venus.Config.Obs, server.WithObs, wal.Options.Obs...).
// There is no process-global registry. A nil *Registry is fully inert —
// every method on it, and on the nil handles it returns, is a no-op —
// so instrumented code never branches on "is observability on".
//
// Metric names are static snake_case string literals with a package
// prefix ("venus_cache_hits_total"); the codalint obsname analyzer
// enforces this so the metric catalog in DESIGN.md §10 stays greppable.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/simtime"
)

// Label is one key=value dimension on a metric. Label KEYS should be
// static; label VALUES may be dynamic (peer addresses, volume names).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric handle. The zero of a
// nil handle is inert: Add/Inc on a nil *Counter do nothing, which is
// what makes nil-registry injection free at instrumentation sites.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored; counters only go
// up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value metric handle.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (useful for in-flight style gauges).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reports the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// desc tells a func-backed kind from its plain twin, for the
// kind-collision panic.
func (k metricKind) desc() string {
	return [...]string{"counter", "counter func", "gauge", "gauge func", "histogram"}[k]
}

// String is the kind a dump and the Prometheus export show: a
// func-backed series shows as the kind it reads.
func (k metricKind) String() string { return strings.TrimSuffix(k.desc(), " func") }

// metric is one registered time series: a (name, sorted labels) key
// plus the kind-specific state.
type metric struct {
	name   string
	labels []Label // sorted by key
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() int64
	hist    *Histogram
}

// key builds the registry map key for (name, labels). Labels must
// already be sorted.
func key(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Registry holds every registered metric and the span table. All
// methods are safe for concurrent use, and all are no-ops on a nil
// receiver.
type Registry struct {
	clock simtime.Clock

	mu      sync.Mutex
	metrics map[string]*metric

	// The span table (span.go) has its own lock: span minting/ending
	// under spanMu never calls out of the package, and snapshot never
	// holds mu while evaluating gauge funcs, so no lock cycle can form
	// through the registry.
	spanMu sync.Mutex
	spans  []*Span

	// spDropC, registered as obs_spans_dropped_total, is the one count of
	// refused spans: every dump shows it, scenario asserts bound it, and
	// DroppedSpans reads it.
	spDropC *Counter
}

// NewRegistry returns an empty registry stamping spans from clock.
func NewRegistry(clock simtime.Clock) *Registry {
	r := &Registry{
		clock:   clock,
		metrics: make(map[string]*metric),
	}
	r.spDropC = r.Counter("obs_spans_dropped_total")
	return r
}

// lookup returns the metric for (name, labels), creating it with make
// if absent. It panics on a kind collision: metric names are static
// literals, so a collision is a programming error the test suite hits
// immediately.
func (r *Registry) lookup(name string, kind metricKind, labels []Label, make func(*metric)) *metric {
	ls := sortLabels(labels)
	k := key(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[k]; ok {
		if m.kind != kind {
			panic("obs: metric " + name + " re-registered as " + kind.desc() + ", was " + m.kind.desc())
		}
		return m
	}
	m := &metric{name: name, labels: ls, kind: kind}
	make(m)
	r.metrics[k] = m
	return m
}

// Counter returns the counter registered under (name, labels),
// creating it on first use. On a nil registry it returns a nil handle
// whose methods are no-ops.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, kindCounter, labels, func(m *metric) { m.counter = new(Counter) })
	return m.counter
}

// Gauge returns the gauge registered under (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, kindGauge, labels, func(m *metric) { m.gauge = new(Gauge) })
	return m.gauge
}

// GaugeFunc registers a pull-style gauge evaluated at Dump/export time.
// Re-registering the same (name, labels) replaces the function (the
// last writer wins), so components that recreate state — e.g. a netmon
// peer being forgotten and re-learned — can re-register safely.
//
// fn runs without the registry lock held; it may take component locks
// but must not call back into the Registry.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...Label) {
	r.funcSeries(name, kindGaugeFunc, fn, labels)
}

// CounterFunc registers a pull-style counter: fn reads a count its
// owner keeps (a Stats field), and the series dumps and exports as a
// counter. It follows GaugeFunc's rules, so a restarted owner that
// re-registers replaces the function and the series restarts from the
// new owner's count — Prometheus's counter-reset convention.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...Label) {
	r.funcSeries(name, kindCounterFunc, fn, labels)
}

func (r *Registry) funcSeries(name string, kind metricKind, fn func() int64, labels []Label) {
	if r == nil || fn == nil {
		return
	}
	m := r.lookup(name, kind, labels, func(m *metric) {})
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram registered under (name, labels) with
// the given fixed bucket upper bounds (ascending, inclusive). If the
// metric already exists, the existing buckets are kept and the buckets
// argument is ignored.
func (r *Registry) Histogram(name string, buckets []int64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, kindHistogram, labels, func(m *metric) { m.hist = newHistogram(buckets) })
	return m.hist
}

// metricSnapshot is one resolved time series: scalar kinds carry Value,
// histograms carry the bucket state.
type metricSnapshot struct {
	Name   string
	Labels []Label
	Kind   string
	Value  int64
	Le     []int64 // histogram upper bounds
	Counts []int64 // per-bucket counts, last = overflow
	Sum    int64
	Count  int64
}

// snapshot resolves every registered metric — evaluating gauge funcs —
// sorted by (name, labels) so the ordering is deterministic. Gauge
// funcs run after the registry lock is released: they may take
// component locks (Venus's mutex, netmon peer mutexes) that are also
// held around registry calls, and evaluating them under r.mu would
// close a lock cycle.
func (r *Registry) snapshot() []metricSnapshot {
	type resolved struct {
		m  *metric
		fn func() int64
	}
	r.mu.Lock()
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	list := make([]resolved, 0, len(keys))
	for _, k := range keys {
		m := r.metrics[k]
		list = append(list, resolved{m: m, fn: m.fn})
	}
	r.mu.Unlock()

	out := make([]metricSnapshot, 0, len(list))
	for _, it := range list {
		m := it.m
		s := metricSnapshot{Name: m.name, Labels: m.labels, Kind: m.kind.String()}
		switch m.kind {
		case kindCounter:
			s.Value = m.counter.Value()
		case kindGauge:
			s.Value = m.gauge.Value()
		case kindCounterFunc, kindGaugeFunc:
			s.Value = it.fn()
		case kindHistogram:
			s.Le, s.Counts, s.Sum, s.Count = m.hist.snapshot()
		}
		out = append(out, s)
	}
	return out
}
