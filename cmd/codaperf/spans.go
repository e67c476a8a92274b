package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// recorder keeps codaperf's own wall-clock spans in memory for the
// traced pass: one per phase and one per call the harness makes into a
// layer. A nil recorder (tracing off) records nothing, so the end-to-end
// pass pays one nil check per call site.
type recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

// span is one recorded interval. Parent is the index of the enclosing
// span in recorder.spans, or -1.
type span struct {
	Name     string
	Workload string
	Iter     int
	Parent   int
	Start    time.Duration // since recorder.t0
	End      time.Duration
}

type spanHandle struct {
	rec *recorder
	idx int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

func (r *recorder) begin(name string, parent *spanHandle, iter int) *spanHandle {
	if r == nil {
		return nil
	}
	p := -1
	if parent != nil {
		p = parent.idx
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Workload: r.workload, Iter: iter, Parent: p, Start: now, End: -1})
	return &spanHandle{rec: r, idx: len(r.spans) - 1}
}

func (h *spanHandle) end() {
	if h == nil {
		return
	}
	now := time.Since(h.rec.t0)
	h.rec.mu.Lock()
	h.rec.spans[h.idx].End = now
	h.rec.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time of the spans of
// iteration iter: a span's duration minus the part of it its children
// cover. Children may overlap (the four clients of group_journal_eth call
// concurrently), so the covered part is the union of their intervals.
func (r *recorder) selfTimes(iter int) map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Iter == iter && s.End >= 0 && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range r.spans {
		if s.Iter != iter || s.End < 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		self, covered := s.End-s.Start, s.Start
		for _, k := range kids {
			if k.End > covered {
				self -= k.End - max(k.Start, covered)
				covered = k.End
			}
		}
		out[s.Name] += self
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto opens directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace renders the spans as Chrome trace-event JSON. Nested spans
// of one iteration share a track; concurrent siblings (the four clients
// of group_journal_eth) overlap on it, which the viewer stacks.
func chromeTrace(spans []span) ([]byte, error) {
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Iter,
			Args: map[string]any{"id": i, "parent": s.Parent, "iteration": s.Iter, "workload": s.Workload},
		})
	}
	return json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
}
