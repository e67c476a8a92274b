package obs

import (
	"encoding/json"
	"slices"
	"testing"
	"time"
)

func TestNilRegistrySpansInert(t *testing.T) {
	var r *Registry
	h := r.StartSpan("node", "fix_op", SpanContext{}, F("k", "v"))
	if h != nil {
		t.Fatalf("nil registry StartSpan = %v, want nil", h)
	}
	if sc := h.Context(); sc.Valid() {
		t.Errorf("nil handle context = %+v, want zero", sc)
	}
	h.End() // must not panic
	h.EndAt(time.Time{})
	if sp := r.Spans(); sp != nil {
		t.Errorf("nil registry Spans = %v", sp)
	}
	if n := r.DroppedSpans(); n != 0 {
		t.Errorf("nil registry DroppedSpans = %d", n)
	}
	if h2 := r.SpanAt("node", "fix_op", SpanContext{}, time.Time{}); h2 != nil {
		t.Errorf("nil registry SpanAt = %v, want nil", h2)
	}
}

func TestSpanTreeIdentity(t *testing.T) {
	r, sim := newTestRegistry()
	sim.Run(func() {
		root := r.StartSpan("client", "fix_root", SpanContext{}, F("path", "/f"))
		if !root.Context().Valid() {
			t.Fatal("root context invalid")
		}
		if root.Context().Trace != root.Context().Span {
			t.Error("a root's trace must be its own span ID")
		}
		sim.Sleep(time.Second)
		child := r.StartSpan("server", "fix_child", root.Context())
		if got, want := child.Context().Trace, root.Context().Trace; got != want {
			t.Errorf("child trace = %d, want inherited %d", got, want)
		}
		sim.Sleep(time.Second)
		child.End()
		root.End(F("outcome", "ok"))

		// Ending twice keeps the first end.
		sim.Sleep(time.Hour)
		root.End()
	})

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Recording order: the root was started first.
	if spans[0].Name != "fix_root" || spans[1].Name != "fix_child" {
		t.Fatalf("span order = %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[1].Parent != spans[0].ID {
		t.Error("child does not point at the root")
	}
	if d := spans[0].Duration(); d != 2*time.Second {
		t.Errorf("root duration = %v, want 2s", d)
	}
	if d := spans[1].Duration(); d != time.Second {
		t.Errorf("child duration = %v, want 1s", d)
	}
	// End fields were appended after the start fields.
	if got, want := spans[0].Fields, []Field{F("path", "/f"), F("outcome", "ok")}; !slices.Equal(got, want) {
		t.Errorf("root fields = %v, want %v", got, want)
	}
}

func TestSpanTableBoundedAndCounted(t *testing.T) {
	r, _ := newTestRegistry()
	a := r.StartSpan("n", "fix_a", SpanContext{})
	for i := 1; i < spanCap; i++ {
		r.StartSpan("n", "fix_b", a.Context())
	}
	if got := r.DroppedSpans(); got != 0 {
		t.Fatalf("DroppedSpans = %d with the table just full, want 0", got)
	}
	dropped := r.StartSpan("n", "fix_c", a.Context())
	if dropped.Context().Valid() {
		t.Error("span over capacity kept a valid context")
	}
	dropped.End() // inert
	// A child of the dropped span carries an invalid parent, so it would
	// start a new root — which the full table also refuses.
	r.StartSpan("n", "fix_d", dropped.Context())
	if got := r.DroppedSpans(); got != 2 {
		t.Errorf("DroppedSpans = %d, want 2", got)
	}
	if got, want := r.DroppedSpans(), r.Counter("obs_spans_dropped_total").Value(); got != want {
		t.Errorf("DroppedSpans = %d, obs_spans_dropped_total = %d; want equal", got, want)
	}
	if got := len(r.Spans()); got != spanCap {
		t.Errorf("table holds %d spans, want %d", got, spanCap)
	}
}

func TestSpanIDsDeterministicAcrossRuns(t *testing.T) {
	mint := func() []Span {
		r, _ := newTestRegistry()
		a := r.StartSpan("alpha", "fix_a", SpanContext{})
		r.StartSpan("beta", "fix_b", a.Context())
		r.StartSpan("alpha", "fix_c", a.Context())
		return r.Spans()
	}
	x, y := mint(), mint()
	for i := range x {
		if x[i].ID != y[i].ID || x[i].Trace != y[i].Trace || x[i].Parent != y[i].Parent {
			t.Errorf("span %d identity differs across identical runs: %+v vs %+v", i, x[i], y[i])
		}
	}
}

func TestCriticalPathSelfTime(t *testing.T) {
	r, s := newTestRegistry()
	t0 := s.Now()
	at := func(d time.Duration) time.Time { return t0.Add(d) }

	// Root [0,10s]; an sftp child [1s,4s] holding a retransmit wait
	// [2s,3s]; a patience wait [5s,7s] directly under the root. Every
	// instant is charged exactly once, to the innermost span covering it.
	root := r.SpanAt("c", "venus_reintegrate", SpanContext{}, at(0))
	ship := r.SpanAt("c", "sftp_transfer", root.Context(), at(1*time.Second))
	rexmit := r.SpanAt("c", "rpc2_retransmit_wait", ship.Context(), at(2*time.Second))
	rexmit.EndAt(at(3 * time.Second))
	ship.EndAt(at(4 * time.Second))
	wait := r.SpanAt("c", "venus_patience_wait", root.Context(), at(5*time.Second))
	wait.EndAt(at(7 * time.Second))
	root.EndAt(at(10 * time.Second))

	cp := CriticalPath(r.Spans(), "venus_reintegrate")
	want := map[string]time.Duration{
		"fragment_serialization": 2 * time.Second, // ship [1,4] minus rexmit [2,3]
		"retransmit":             1 * time.Second,
		"patience_wait":          2 * time.Second,
		"other":                  5 * time.Second, // root minus child union [1,4]+[5,7]
	}
	var sum time.Duration
	for _, b := range CriticalPathBuckets {
		sum += cp[b]
		if w, ok := want[b]; ok && cp[b] != w {
			t.Errorf("bucket %s = %v, want %v", b, cp[b], w)
		} else if !ok && cp[b] != 0 {
			t.Errorf("bucket %s = %v, want 0", b, cp[b])
		}
	}
	if sum != 10*time.Second {
		t.Errorf("buckets sum to %v, want the root's 10s", sum)
	}
}

// TestExportTraceRecordOrder: a span's ID is its table position across
// node labels, Spans and ExportTrace keep recording order whatever the
// start instants, a span under an unended parent exports as a root of
// its own thread, and a full table records no child of a dropped span.
func TestExportTraceRecordOrder(t *testing.T) {
	r, s := newTestRegistry()
	t0 := s.Now()
	at := func(d time.Duration) time.Time { return t0.Add(d) }

	root := r.SpanAt("alpha", "fix_root", SpanContext{}, at(time.Second))
	call := r.SpanAt("beta", "fix_call", root.Context(), at(2*time.Second))
	early := r.SpanAt("alpha", "fix_early", root.Context(), at(0)) // starts before its parent
	open := r.SpanAt("beta", "fix_open", SpanContext{}, at(time.Second))
	orphan := r.SpanAt("alpha", "fix_orphan", open.Context(), at(2*time.Second))
	for _, h := range []*SpanHandle{call, early, orphan, root} {
		h.EndAt(at(3 * time.Second))
	}

	names := []string{"fix_root", "fix_call", "fix_early", "fix_open", "fix_orphan"}
	spans := r.Spans()
	if len(spans) != len(names) {
		t.Fatalf("recorded %d spans, want %d", len(spans), len(names))
	}
	for i, sp := range spans {
		if sp.ID != uint64(i+1) || sp.Name != names[i] {
			t.Errorf("span %d = %s with ID %d, want %s with ID %d", i, sp.Name, sp.ID, names[i], i+1)
		}
	}

	out := r.ExportTrace()
	if len(out) == 0 || out[len(out)-1] != '\n' {
		t.Error("export must be newline-terminated")
	}
	type event struct {
		Name string
		Pid  int
		Tid  int64
		Args spanArgs
	}
	var doc struct{ TraceEvents []event }
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	want := []event{
		{"process_name", 1, 0, spanArgs{}},
		{"process_name", 2, 0, spanArgs{}},
		{"fix_root", 1, 1, spanArgs{Span: 1, Parent: 0, Trace: 1}},
		{"fix_call", 2, 1, spanArgs{Span: 2, Parent: 1, Trace: 1}},
		{"fix_early", 1, 1, spanArgs{Span: 3, Parent: 1, Trace: 1}},
		{"fix_orphan", 1, 2, spanArgs{Span: 5, Parent: 0, Trace: 2}},
	}
	if !slices.Equal(doc.TraceEvents, want) {
		t.Errorf("exported events:\n got %v\nwant %v", doc.TraceEvents, want)
	}

	for range spanCap - len(spans) {
		r.StartSpan("alpha", "fix_fill", root.Context())
	}
	dropped := r.StartSpan("alpha", "fix_dropped", root.Context())
	r.StartSpan("beta", "fix_child", dropped.Context())
	if n := len(r.Spans()); n != spanCap || r.DroppedSpans() != 2 {
		t.Errorf("full table: %d spans recorded, %d dropped; want %d and 2", n, r.DroppedSpans(), spanCap)
	}
}
