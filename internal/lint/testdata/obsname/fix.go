package fix

// A local stand-in for obs.Registry: the analyzer matches any method set
// on a named type called Registry, so the fixture needs no module
// imports (LoadDir resolves the standard library only).

type Registry struct{}

type Counter struct{}

type Label struct{ K, V string }

func (r *Registry) Counter(name string, labels ...Label) *Counter { return nil }

func (r *Registry) CounterFunc(name string, fn func() int64, labels ...Label) {}

func (r *Registry) Gauge(name string, labels ...Label) *Counter { return nil }

func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...Label) {}

func (r *Registry) Histogram(name string, buckets []int64, labels ...Label) *Counter { return nil }

type SpanContext struct{ Trace, Span uint64 }

type SpanHandle struct{}

func (r *Registry) StartSpan(node, name string, parent SpanContext, fields ...Label) *SpanHandle {
	return nil
}

func (r *Registry) SpanAt(node, name string, parent SpanContext, start int64, fields ...Label) *SpanHandle {
	return nil
}

// notARegistry has the same method names on a different type; it must
// not be flagged.
type notARegistry struct{}

func (n *notARegistry) Counter(name string) {}

const goodName = "fix_requests_total"

func use(r *Registry, other *notARegistry, dyn string) {
	r.Counter("fix_requests_total")
	r.Counter(goodName)                 // constants are static too
	r.Counter("fix_" + goodName[4:])    // want "static string literal"
	r.Counter(dyn)                      // want "static string literal"
	r.Counter("Fix_Requests_Total")     // want "snake_case"
	r.Counter("fix__double_underscore") // want "snake_case"
	r.Counter("venus_requests_total")   // want "package prefix"
	r.Gauge("fix_queue_depth")
	r.GaugeFunc("queue_depth", func() int64 { return 0 }) // want "package prefix"
	r.CounterFunc(dyn, func() int64 { return 0 })         // want "static string literal"
	r.Histogram("fix_latency_us", []int64{1, 10})
	r.Histogram("fix-latency-us", []int64{1, 10}) // want "snake_case"
	other.Counter(dyn)                            // different receiver type: clean

	// Span names are policed like metric names; the node label (first
	// argument) stays dynamic.
	r.StartSpan(dyn, "fix_open", SpanContext{})
	r.StartSpan(dyn, dyn, SpanContext{})          // want "static string literal"
	r.StartSpan(dyn, "Fix_Open", SpanContext{})   // want "snake_case"
	r.StartSpan(dyn, "venus_open", SpanContext{}) // want "package prefix"
	r.SpanAt(dyn, "fix_wait", SpanContext{}, 0)
	r.SpanAt(dyn, "fix-wait", SpanContext{}, 0) // want "snake_case"
}
