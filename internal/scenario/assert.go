package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// evalAssert evaluates one end-state assertion against the finished
// world and the captured metrics snapshot.
func (w *compiled) evalAssert(a *Assert, res *Result) AssertResult {
	ok, detail := w.checkAssert(a, res)
	return AssertResult{Line: a.Line, Kind: string(a.Kind), OK: ok, Detail: detail}
}

func (w *compiled) checkAssert(a *Assert, res *Result) (bool, string) {
	switch a.Kind {
	case AssertIdentical:
		return w.checkIdentical(a.Target)
	case AssertFile:
		return w.checkServerFile(a)
	case AssertClientFile:
		data, err := w.clients[a.Client].ReadFile(a.Path)
		if err != nil {
			return false, fmt.Sprintf("%s: read %s: %v", a.Client, a.Path, err)
		}
		if !bytes.Equal(data, a.Data) {
			return false, fmt.Sprintf("%s: %s = %q, want %q", a.Client, a.Path, clip(data), clip(a.Data))
		}
		return true, fmt.Sprintf("%s: %s matches (%d bytes)", a.Client, a.Path, len(data))
	case AssertCMLEmpty:
		if n := w.clients[a.Client].CMLRecords(); n != 0 {
			return false, fmt.Sprintf("%s: CML holds %d records", a.Client, n)
		}
		return true, a.Client + ": CML empty"
	case AssertStamp:
		return w.checkStamp(a)
	case AssertMetric:
		return w.checkMetric(a, res.Metrics)
	case AssertFailovers:
		got := int64(w.clients[a.Client].Stats().Failovers)
		return cmpInt(fmt.Sprintf("%s failovers", a.Client), got, a.Op, a.N)
	case AssertElapsed:
		got := res.ElapsedSimUS
		want := a.Dur.Microseconds()
		return cmpInt("elapsed sim time (us)", got, a.Op, want)
	case AssertState:
		got := w.clients[a.Client].State().String()
		if got != a.State {
			return false, fmt.Sprintf("%s state = %s, want %s", a.Client, got, a.State)
		}
		return true, fmt.Sprintf("%s state = %s", a.Client, got)
	case AssertSpans:
		return w.checkSpans(a)
	}
	return false, fmt.Sprintf("unhandled assert kind %q", a.Kind)
}

// checkIdentical requires the group's live members byte-identical.
func (w *compiled) checkIdentical(groupName string) (bool, string) {
	members, size, err := w.groups[groupName].Identical()
	if err != nil {
		return false, err.Error()
	}
	return true, fmt.Sprintf("%s: %d replicas byte-identical (%d state bytes)", groupName, members, size)
}

// checkServerFile verifies file content on every member the target
// names (all of a group, or one server).
func (w *compiled) checkServerFile(a *Assert) (bool, string) {
	g, idx, isGroup, err := w.topo.resolveTarget(a.Target)
	if err != nil {
		return false, err.Error()
	}
	grp := w.groups[g]
	first, last := idx, idx
	if isGroup {
		first, last = 0, grp.Len()-1
	}
	for i := first; i <= last; i++ {
		data, err := grp.Member(i).ReadFile(a.Volume, a.Path)
		if err != nil {
			return false, fmt.Sprintf("%s: read %s/%s: %v", serverName(g, i), a.Volume, a.Path, err)
		}
		if !bytes.Equal(data, a.Data) {
			return false, fmt.Sprintf("%s: %s/%s = %q, want %q",
				serverName(g, i), a.Volume, a.Path, clip(data), clip(a.Data))
		}
	}
	return true, fmt.Sprintf("%s: %s/%s matches on members %d..%d", a.Target, a.Volume, a.Path, first, last)
}

// checkStamp verifies the exact volume version stamp on every member of
// a group — the update-count ledger the paper's reintegration protocol
// keys off.
func (w *compiled) checkStamp(a *Assert) (bool, string) {
	grp := w.groups[a.Target]
	for i := 0; i < grp.Len(); i++ {
		got, err := grp.Member(i).VolumeStamp(a.Volume)
		if err != nil {
			return false, fmt.Sprintf("%s: stamp %s: %v", serverName(a.Target, i), a.Volume, err)
		}
		if ok, detail := cmpInt(fmt.Sprintf("%s stamp(%s)", serverName(a.Target, i), a.Volume), int64(got), a.Op, a.N); !ok {
			return false, detail
		}
	}
	return true, fmt.Sprintf("%s: stamp(%s) %s %d on all %d members", a.Target, a.Volume, a.Op, a.N, grp.Len())
}

// checkSpans bounds the traced spans carrying the asserted name: their
// count, or the sum of their durations. A count bound against zero
// holds when no span matched (an operation that never fired leaves no
// spans), exactly like metric assertions on absent counters.
func (w *compiled) checkSpans(a *Assert) (bool, string) {
	var count, totalUS int64
	for _, sp := range w.Reg.Spans() {
		if sp.Name != a.Metric {
			continue
		}
		count++
		totalUS += sp.Duration().Microseconds()
	}
	if a.State == "dur" {
		return cmpInt(fmt.Sprintf("spans %s total duration (us)", a.Metric), totalUS, a.Op, a.Dur.Microseconds())
	}
	return cmpInt(fmt.Sprintf("spans %s count", a.Metric), count, a.Op, a.N)
}

// dumpSeries mirrors the subset of the obs dump a metric assertion
// reads.
type dumpSeries struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels"`
	Value  int64             `json:"value"`
	Sum    int64             `json:"sum"`
	Count  int64             `json:"count"`
	Kind   string            `json:"kind"`
}

// checkMetric sums every series in the captured dump matching the
// assertion's name and label subset, then applies the bound. Histograms
// contribute their observation count. A bound against zero holds even
// when no series matched (counters that never fired may be absent).
func (w *compiled) checkMetric(a *Assert, dump []byte) (bool, string) {
	var doc struct {
		Metrics []dumpSeries `json:"metrics"`
	}
	if err := json.Unmarshal(dump, &doc); err != nil {
		return false, fmt.Sprintf("parse metrics dump: %v", err)
	}
	var total int64
	matched := 0
	for _, m := range doc.Metrics {
		if m.Name != a.Metric || !labelsMatch(m.Labels, a.Labels) {
			continue
		}
		matched++
		if m.Kind == "histogram" {
			total += m.Count
		} else {
			total += m.Value
		}
	}
	name := a.Metric
	if len(a.Labels) > 0 {
		name += fmt.Sprintf("%v", a.Labels)
	}
	ok, detail := cmpInt(name, total, a.Op, a.N)
	if matched == 0 {
		detail += " (no series matched)"
	}
	return ok, detail
}

// labelsMatch reports whether the series labels contain every required
// pair.
func labelsMatch(got map[string]string, want [][2]string) bool {
	for _, kv := range want {
		if got[kv[0]] != kv[1] {
			return false
		}
	}
	return true
}

// cmpInt applies a comparison operator and renders the verdict.
func cmpInt(what string, got int64, op string, want int64) (bool, string) {
	var ok bool
	switch op {
	case "==":
		ok = got == want
	case "!=":
		ok = got != want
	case "<=":
		ok = got <= want
	case ">=":
		ok = got >= want
	case "<":
		ok = got < want
	case ">":
		ok = got > want
	default:
		return false, fmt.Sprintf("%s: unknown operator %q", what, op)
	}
	if !ok {
		return false, fmt.Sprintf("%s = %d, want %s %d", what, got, op, want)
	}
	return true, fmt.Sprintf("%s = %d (%s %d)", what, got, op, want)
}
