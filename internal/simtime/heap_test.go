package simtime

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestHeapOrderMatchesReferenceSort drives the event heap with seeded
// random runs of schedule, cancel (of any pending event) and pop, and
// checks every pop against a reference: the pending set sorted by
// (when, seq). Durations mix ties, short delays and far-future deadlines
// (1<<62 ns and math.MaxInt64 beside short ones), and each pop moves the
// clock (popLocked), so later deadlines pass where the heap's offset keys
// saturate.
func TestHeapOrderMatchesReferenceSort(t *testing.T) {
	type ref struct {
		ev   *event
		when time.Time
		seq  int64
	}
	before := func(a, b ref) int {
		if c := a.when.Compare(b.when); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	}
	durations := []time.Duration{0, 0, 1, time.Microsecond, time.Millisecond, time.Second,
		time.Hour, 1 << 62, 1<<62 + 1, math.MaxInt64, math.MaxInt64 - 1, -time.Second}

	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim(Epoch1995)
		var pending []ref
		var seq int64
		s.mu.Lock()
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(pending) == 0: // schedule
				d := durations[rng.Intn(len(durations))]
				if rng.Intn(3) == 0 {
					d = time.Duration(rng.Int63n(int64(time.Second)))
				}
				ev := &event{index: -1}
				seq++
				pending = append(pending, ref{ev: ev, when: s.now.Add(max(d, 0)), seq: seq})
				s.scheduleLocked(ev, d)
			case op < 7: // cancel any pending event
				i := rng.Intn(len(pending))
				s.cancelLocked(pending[i].ev)
				if pending[i].ev.index != -1 {
					t.Fatalf("seed %d step %d: a cancelled event still has heap index %d", seed, step, pending[i].ev.index)
				}
				s.cancelLocked(pending[i].ev) // a no-op: the length check below sees a second removal
				pending = slices.Delete(pending, i, i+1)
			default: // pop, moving the clock
				want := slices.MinFunc(pending, before)
				ev := s.popLocked()
				if ev != want.ev {
					t.Fatalf("seed %d step %d: popped the event due %v, want the one due %v (seq %d)",
						seed, step, ev.when.Sub(Epoch1995), want.when.Sub(Epoch1995), want.seq)
				}
				pending = slices.DeleteFunc(pending, func(r ref) bool { return r.ev == ev })
			}
			if len(s.events) != len(pending) {
				t.Fatalf("seed %d step %d: heap holds %d events, want %d", seed, step, len(s.events), len(pending))
			}
		}
		// Drain: the rest come out in reference order too.
		slices.SortFunc(pending, before)
		for _, want := range pending {
			if ev := s.popLocked(); ev != want.ev {
				t.Fatalf("seed %d drain: popped the event due %v, want the one due %v",
					seed, ev.when.Sub(Epoch1995), want.when.Sub(Epoch1995))
			}
		}
		s.mu.Unlock()
	}
}
