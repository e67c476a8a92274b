package simtime

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// runServeProgram drives one queue through a seeded program and returns
// its log in the order the lines were appended. With serve the queue's
// handler h runs through Serve; without, a tracked goroutine loops over Get
// and calls h. Everything that makes the two differ if Serve's entry took
// another place in the run queue is there: two producers and a ticker
// whose sleeps tie, bursts of direct Puts that land before the consumer
// runs (some right behind a Put that wakes another goroutine), PutAfter
// bursts with equal delays that land at one instant, and a handler that
// wakes a Get consumer, starts goroutines and puts onto its own queue.
func runServeProgram(seed int64, serve bool) []byte {
	s := NewSim(Epoch1995)
	var log bytes.Buffer
	add := func(who, format string, args ...any) {
		fmt.Fprintf(&log, "%d %s %s\n", s.Now().Sub(Epoch1995).Microseconds(), who, fmt.Sprintf(format, args...))
	}
	ms := func(r *rand.Rand, n int) time.Duration { return time.Duration(1+r.Intn(n)) * time.Millisecond }

	s.Run(func() {
		q := NewQueue[int](s)
		fwd := NewQueue[int](s) // h -> fw
		done := NewQueue[struct{}](s)
		h := func(v int) {
			add("h", "got %d", v)
			switch {
			case v%3 == 0:
				fwd.Put(v)
			case v%7 == 0:
				s.Go(func() {
					add("g", "started by %d", v)
					s.Sleep(time.Millisecond)
					add("g", "%d slept", v)
				})
			case v%11 == 0 && v > 0:
				q.Put(-v)
			}
		}
		if serve {
			q.Serve(h)
		} else {
			s.Go(func() {
				for {
					v, ok := q.Get()
					if !ok {
						return
					}
					h(v)
				}
			})
		}
		s.Go(func() {
			r := rand.New(rand.NewSource(seed))
			for {
				v, ok := fwd.Get()
				if !ok {
					return
				}
				add("fw", "got %d", v)
				if r.Intn(2) == 0 {
					s.Sleep(ms(r, 2))
				}
			}
		})
		producer := func(who string, g int64) {
			r := rand.New(rand.NewSource(seed*10 + g))
			for i := range 40 {
				s.Sleep(ms(r, 3))
				base := int(g)*10000 + 10*i
				switch r.Intn(4) {
				case 0: // several Puts before the consumer runs
					for k := range 1 + r.Intn(4) {
						q.Put(base + k)
					}
				case 1: // behind a goroutine woken first
					fwd.Put(-base)
					q.Put(base)
					q.Put(base + 1)
				case 2: // landing together, some at a tick
					d := ms(r, 3)
					for k := range 1 + r.Intn(3) {
						q.PutAfter(d, base+k)
					}
				case 3: // behind a goroutine started first
					s.Go(func() { add(who, "helper %d", i) })
					q.Put(base)
				}
				add(who, "round %d", i)
			}
			done.Put(struct{}{})
		}
		s.Go(func() { producer("p1", 1) })
		s.Go(func() { producer("p2", 2) })
		s.Go(func() {
			for i := range 60 {
				s.Sleep(time.Millisecond)
				add("t", "tick %d", i)
			}
			done.Put(struct{}{})
		})
		for range 3 {
			done.Get()
		}
		s.Sleep(10 * time.Millisecond) // everything lands and every g returns
		q.Close()
		fwd.Close()
		add("main", "closed")
	})
	return log.Bytes()
}

// TestServeMatchesGetLoop is Serve's contract: a program whose consumer
// is Serve's handler logs the same lines in the same order as the same
// program with a goroutine looping over Get.
func TestServeMatchesGetLoop(t *testing.T) {
	for i := 0; i < 100; i++ {
		seed := int64(i%10 + 1)
		want := runServeProgram(seed, false)
		got := runServeProgram(seed, true)
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d, seed %d: Serve log differs from the Get loop's:\n%s", i, seed, firstDiff(got, want))
		}
		if i < 10 && bytes.Count(got, []byte(" h got ")) < 100 {
			t.Fatalf("seed %d: the handler ran only %d times", seed, bytes.Count(got, []byte(" h got ")))
		}
	}
}

// TestServeBuffered: items put before Serve are handled once the caller
// parks, in put order, as a consumer started then would take them; a
// closed queue is still drained of them.
func TestServeBuffered(t *testing.T) {
	s := NewSim(Epoch1995)
	var got []int
	s.Run(func() {
		q := NewQueue[int](s)
		q.Put(1)
		q.Put(2)
		q.Close()
		q.Serve(func(v int) { got = append(got, v) })
		if len(got) != 0 {
			t.Error("the handler ran before the caller parked")
		}
		s.Sleep(time.Second)
	})
	if fmt.Sprint(got) != "[1 2]" {
		t.Errorf("handled %v, want [1 2]", got)
	}
}

// TestServeHandlerMustNotPark: a handler that parks, on the clock or on
// a queue, whether or not the clock could advance inline, panics out of
// Run with a message naming Serve.
func TestServeHandlerMustNotPark(t *testing.T) {
	for _, tc := range []struct {
		name string
		park func(s *Sim, other *Queue[int])
	}{
		{"Sleep that would advance inline", func(s *Sim, _ *Queue[int]) { s.Sleep(time.Millisecond) }},
		{"Sleep past the next event", func(s *Sim, _ *Queue[int]) { s.Sleep(2 * time.Hour) }},
		{"Get of an empty queue", func(_ *Sim, other *Queue[int]) { other.Get() }},
		{"GetTimeout that would expire inline", func(_ *Sim, other *Queue[int]) { other.GetTimeout(time.Millisecond) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSim(Epoch1995)
			got := func() (v any) {
				defer func() { v = recover() }()
				s.Run(func() {
					q, other := NewQueue[int](s), NewQueue[int](s)
					q.Serve(func(int) { tc.park(s, other) })
					q.Put(1)
					s.Sleep(time.Hour)
				})
				return nil
			}()
			if msg, _ := got.(string); !strings.Contains(msg, "Serve") {
				t.Errorf("Run panicked with %v, want a message naming Serve", got)
			}
		})
	}
}

// TestServeReal: over the Real clock a goroutine hands h every item in
// put order.
func TestServeReal(t *testing.T) {
	q := NewQueue[int](Real{})
	got := make(chan int, 100)
	q.Serve(func(v int) { got <- v })
	for i := range 100 {
		q.Put(i)
	}
	for i := range 100 {
		select {
		case v := <-got:
			if v != i {
				t.Fatalf("item %d: got %d", i, v)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("item %d never handled", i)
		}
	}
	q.Close()
}
