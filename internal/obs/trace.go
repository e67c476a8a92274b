package obs

import (
	"sort"
	"time"
)

// Field is one key=value annotation on a trace event.
type Field struct {
	Key, Value string
}

// F is shorthand for constructing a Field.
func F(key, value string) Field { return Field{Key: key, Value: value} }

// Event is one entry in the trace ring: a kind (static snake_case
// literal, like metric names), a clock timestamp, and free-form fields.
type Event struct {
	Time   time.Time
	Kind   string
	Fields []Field
}

// Event appends a trace event stamped from the registry's injected
// clock. The ring holds the most recent traceCap events; older ones
// are overwritten, counted both in obs_events_dropped_total and the
// DroppedEvents accessor.
func (r *Registry) Event(kind string, fields ...Field) {
	if r == nil {
		return
	}
	var now time.Time
	if r.clock != nil {
		now = r.clock.Now()
	}
	fs := make([]Field, len(fields))
	copy(fs, fields)
	e := Event{Time: now, Kind: kind, Fields: fs}

	r.evMu.Lock()
	defer r.evMu.Unlock()
	if r.events == nil {
		r.events = make([]Event, traceCap)
	}
	if r.eventsFilled {
		r.dropped++
		r.evDropC.Inc()
	}
	r.events[r.eventsNext] = e
	r.eventsNext++
	if r.eventsNext == len(r.events) {
		r.eventsNext = 0
		r.eventsFilled = true
	}
}

// Events returns the buffered events sorted by (time, kind, fields).
// Counters are commutative, so goroutine interleaving never changes
// final metric values; event *arrival order* at the same sim instant
// can differ run to run, so the content sort — not arrival order — is
// what the determinism contract covers.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.evMu.Lock()
	var out []Event
	if r.eventsFilled {
		out = make([]Event, 0, len(r.events))
		out = append(out, r.events[r.eventsNext:]...)
		out = append(out, r.events[:r.eventsNext]...)
	} else {
		out = make([]Event, r.eventsNext)
		copy(out, r.events[:r.eventsNext])
	}
	r.evMu.Unlock()

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return fieldsKey(a.Fields) < fieldsKey(b.Fields)
	})
	return out
}

// DroppedEvents reports how many events the ring has overwritten.
func (r *Registry) DroppedEvents() int64 {
	if r == nil {
		return 0
	}
	r.evMu.Lock()
	defer r.evMu.Unlock()
	return r.dropped
}

func fieldsKey(fs []Field) string {
	s := ""
	for _, f := range fs {
		s += f.Key + "\x00" + f.Value + "\x00"
	}
	return s
}
