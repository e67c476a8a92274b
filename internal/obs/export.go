package obs

import (
	"encoding/json"
	"sort"
)

// Chrome trace-event / Perfetto JSON export. Spans are emitted in
// recording order with their raw IDs: a seeded run records the same
// spans in the same order every time, so two identical runs export the
// same bytes.

// traceEvent is one Chrome trace-event object. Fixed struct field
// order (encoding/json preserves it) keeps the output deterministic.
type traceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	Pid  int    `json:"pid"`
	Tid  int64  `json:"tid"`
	Args any    `json:"args,omitempty"`
}

// spanArgs annotates a ph="X" event with the span's identity.
type spanArgs struct {
	Span   int64  `json:"span"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Fields string `json:"fields,omitempty"`
}

type metaArgs struct {
	Name string `json:"name"`
}

type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// ExportTrace renders every ended span as Chrome trace-event JSON
// (complete "X" events, one process per node label, one thread per
// trace tree), deterministic and byte-identical for identical seeded
// runs. A span whose parent is not an earlier ended span of this table
// (dropped, never ended, or recorded by another registry) is exported
// as a root. A nil registry exports an empty, still-valid document.
func (r *Registry) ExportTrace() []byte {
	spans := r.Spans()

	// Process IDs: node labels sorted, numbered from 1.
	pid := make(map[string]int)
	var labels []string
	for i := range spans {
		if l := spans[i].Node; spans[i].Ended && pid[l] == 0 {
			pid[l] = 1
			labels = append(labels, l)
		}
	}
	sort.Strings(labels)
	doc := traceDoc{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	for i, l := range labels {
		pid[l] = i + 1
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", Pid: i + 1, Args: metaArgs{Name: l},
		})
	}

	// tid[i] is the thread of the exported span at position i (0: not
	// exported): each root opens the next thread and its descendants,
	// always recorded after it, join it.
	tid := make([]int64, len(spans))
	var roots int64
	for i := range spans {
		sp := &spans[i]
		if !sp.Ended {
			continue
		}
		parent := sp.Parent
		if parent == 0 || parent > uint64(i) || tid[parent-1] == 0 {
			roots++
			tid[i], parent = roots, 0
		} else {
			tid[i] = tid[parent-1]
		}
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: sp.Name,
			Ph:   "X",
			Ts:   sp.Start.UnixMicro(),
			Dur:  sp.End.Sub(sp.Start).Microseconds(),
			Pid:  pid[sp.Node],
			Tid:  tid[i],
			Args: spanArgs{Span: int64(sp.ID), Parent: int64(parent), Trace: tid[i], Fields: fieldsString(sp.Fields)},
		})
	}

	out, err := json.Marshal(doc)
	if err != nil {
		// Only plain structs and strings are marshaled; this cannot
		// fail, but an exporter must never panic a run.
		return []byte("{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n")
	}
	return append(out, '\n')
}

// fieldsString renders span fields compactly for the args payload.
func fieldsString(fs []Field) string {
	s := ""
	for i, f := range fs {
		if i > 0 {
			s += " "
		}
		s += f.Key + "=" + f.Value
	}
	return s
}
