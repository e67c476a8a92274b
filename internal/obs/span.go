package obs

import "time"

// Causal span tracing. A span is a timed interval on one node with a
// (trace, span, parent) identity; spans form trees that cross nodes
// because the SpanContext travels on the wire (rpc2 packet header,
// sftp fragment header). A span's ID is its position in the registry's
// table plus one: no wall clock, no randomness. The simulation kernel
// runs one proc at a time from a FIFO run queue, so a seeded run records
// its spans in the same order every time, and that order is the trace's.
//
// A nil *Registry, and the nil *SpanHandle it returns, are fully
// inert, mirroring the metric handles. Sites that only want to trace
// inside an existing tree guard on parent.Valid() so an untraced
// operation mints nothing at all.

// Field is one key=value annotation on a span.
type Field struct {
	Key, Value string
}

// F is shorthand for constructing a Field.
func F(key, value string) Field { return Field{Key: key, Value: value} }

// SpanContext identifies a span for propagation: Trace is the root
// span's ID, Span the current span's. The zero value means "no trace"
// and is what untraced wire traffic carries (all-zero header bytes).
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context belongs to a live trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// Span is one recorded span. Parent is zero for a root; Trace equals
// the root span's ID for every span in the tree (a root's Trace is its
// own ID). End/Ended are set by SpanHandle.End.
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64
	Node   string
	Name   string
	Start  time.Time
	End    time.Time
	Ended  bool
	Fields []Field
}

// Duration is End-Start for an ended span, zero otherwise.
func (s *Span) Duration() time.Duration {
	if !s.Ended {
		return 0
	}
	return s.End.Sub(s.Start)
}

// spanCap bounds the span table. Spans are per-operation, not
// per-packet, so a long replay mints tens of thousands at most; once
// the table is full new spans are dropped (counted, and returning an
// invalid context so their would-be children are suppressed too: a
// tree is kept whole or not at all).
const spanCap = 65536

// SpanHandle is the live handle for an in-flight span; the span table
// records the address of its sp, so span and handle are one
// allocation. A nil handle (nil registry), or one with a nil r (a
// dropped span), is inert: End is a no-op and Context returns the zero
// SpanContext.
type SpanHandle struct {
	r  *Registry
	sp Span
}

// StartSpan starts a span on node (a stable node label: the same
// client=/node= value the metrics use) beginning now. name must be a
// static snake_case literal with a package prefix — the codalint
// obsname analyzer enforces this, same as metric names. A zero parent
// starts a new root whose Trace is its own ID.
func (r *Registry) StartSpan(node, name string, parent SpanContext, fields ...Field) *SpanHandle {
	if r == nil {
		return nil
	}
	var now time.Time
	if r.clock != nil {
		now = r.clock.Now()
	}
	return r.startSpanAt(node, name, parent, now, fields)
}

// SpanAt is StartSpan with an explicit start instant, for spans whose
// extent is only known after the fact (a failover wait measured around
// a call that timed out). start must come from the same injected clock
// domain as everything else.
func (r *Registry) SpanAt(node, name string, parent SpanContext, start time.Time, fields ...Field) *SpanHandle {
	if r == nil {
		return nil
	}
	return r.startSpanAt(node, name, parent, start, fields)
}

func (r *Registry) startSpanAt(node, name string, parent SpanContext, start time.Time, fields []Field) *SpanHandle {
	var fs []Field
	if len(fields) > 0 {
		fs = make([]Field, len(fields))
		copy(fs, fields)
	}
	h := &SpanHandle{r: r, sp: Span{Parent: parent.Span, Node: node, Name: name, Start: start, Fields: fs}}
	sp := &h.sp

	r.spanMu.Lock()
	if len(r.spans) >= spanCap {
		r.spanMu.Unlock()
		r.spDropC.Inc()
		return &SpanHandle{}
	}
	sp.ID = uint64(len(r.spans)) + 1
	if parent.Valid() {
		sp.Trace = parent.Trace
	} else {
		sp.Trace = sp.ID
	}
	r.spans = append(r.spans, sp)
	r.spanMu.Unlock()
	return h
}

// Context returns the span's propagation context (zero on a nil or
// dropped handle, so children of a dropped span are suppressed too).
// Trace and ID never change once the span is minted, so this reads
// them without the table lock.
func (h *SpanHandle) Context() SpanContext {
	if h == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: h.sp.Trace, Span: h.sp.ID}
}

// End finishes the span at the registry clock's current instant,
// appending any extra fields. Ending twice keeps the first end.
func (h *SpanHandle) End(fields ...Field) {
	if h == nil || h.r == nil {
		return
	}
	var now time.Time
	if h.r.clock != nil {
		now = h.r.clock.Now()
	}
	h.EndAt(now, fields...)
}

// EndAt is End at an explicit instant from the injected clock domain.
func (h *SpanHandle) EndAt(end time.Time, fields ...Field) {
	if h == nil || h.r == nil {
		return
	}
	h.r.spanMu.Lock()
	if !h.sp.Ended {
		h.sp.Ended = true
		h.sp.End = end
		if len(fields) > 0 {
			h.sp.Fields = append(h.sp.Fields, fields...)
		}
	}
	h.r.spanMu.Unlock()
}

// Spans returns copies of every recorded span in recording order, so
// spans[i].ID is i+1.
func (r *Registry) Spans() []Span {
	if r == nil {
		return nil
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	out := make([]Span, len(r.spans))
	for i, sp := range r.spans {
		out[i] = *sp
		out[i].Fields = append([]Field(nil), sp.Fields...)
	}
	return out
}

// DroppedSpans reports how many spans the bounded table has refused
// (obs_spans_dropped_total).
func (r *Registry) DroppedSpans() int64 {
	if r == nil {
		return 0
	}
	return r.spDropC.Value()
}
