package simtime

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func TestPutAfterDelivers(t *testing.T) {
	s := NewSim(Epoch1995)
	s.Run(func() {
		q := NewQueue[int](s)
		// Scheduled out of order, two of them for the same instant.
		q.PutAfter(3*time.Second, 3)
		q.PutAfter(time.Second, 1)
		q.PutAfter(3*time.Second, 4)
		q.PutAfter(-time.Second, 0) // lands now, once the caller blocks
		if n := s.Pending(); n != 4 {
			t.Errorf("Pending = %d with four items in flight, want 4", n)
		}
		if q.Len() != 0 {
			t.Error("an item landed before its time")
		}
		for _, want := range []struct {
			v  int
			at time.Duration
		}{{0, 0}, {1, time.Second}, {3, 3 * time.Second}, {4, 3 * time.Second}} {
			v, ok := q.Get()
			if at := s.Now().Sub(Epoch1995); !ok || v != want.v || at != want.at {
				t.Errorf("got %d (ok=%v) at %v, want %d at %v", v, ok, at, want.v, want.at)
			}
		}

		// Nobody waiting: the item is buffered on time.
		q.PutAfter(time.Second, 5)
		s.Sleep(2 * time.Second)
		if v, ok := q.GetTimeout(0); !ok || v != 5 {
			t.Errorf("buffered item: got %d, %v", v, ok)
		}
		// A deadline that expires first is not rescued by a later item.
		q.PutAfter(2*time.Second, 6)
		if _, ok := q.GetTimeout(time.Second); ok {
			t.Error("GetTimeout returned an item still a second away")
		}
		if v, ok := q.GetTimeout(2 * time.Second); !ok || v != 6 {
			t.Errorf("GetTimeout across the landing: got %d, %v", v, ok)
		}
	})
}

// TestPutAfterClosedQueue: an item addressed to a queue that is closed,
// or closes while the item is in flight, is dropped and leaves no event
// behind.
func TestPutAfterClosedQueue(t *testing.T) {
	s := NewSim(Epoch1995)
	s.Run(func() {
		q := NewQueue[int](s)
		q.PutAfter(time.Second, 1)
		q.Close()
		q.PutAfter(time.Second, 2)
		s.Sleep(2 * time.Second)
		if n := s.Pending(); n != 0 {
			t.Errorf("Pending = %d after both landings, want 0", n)
		}
		if n := q.Len(); n != 0 {
			t.Errorf("closed queue buffered %d item(s)", n)
		}
		if v, ok := q.Get(); ok {
			t.Errorf("closed queue delivered %d", v)
		}

		closed := NewQueue[int](s)
		closed.Close()
		closed.PutAfter(time.Hour, 3)
		if n := s.Pending(); n != 0 {
			t.Errorf("Pending = %d after PutAfter onto a closed queue, want 0", n)
		}
	})
}

func TestPutAfterReal(t *testing.T) {
	q := NewQueue[int](Real{})
	q.PutAfter(time.Millisecond, 7)
	if v, ok := q.GetTimeout(10 * time.Second); !ok || v != 7 {
		t.Errorf("got %d, %v", v, ok)
	}
}

// runPutAfterProgram drives producers, consumers and a closer through a
// seeded program in which every delayed put goes through after, and
// returns the sorted log of what each consumer received and when. It
// follows runKernelProgram's discipline (goroutine g only uses durations
// (16k+g)·100µs, staggered starts, one consumer per logged queue), so the
// log is a function of the kernel's event order alone; producers send in
// bursts with equal delays, so same-instant landings — on one queue and
// across queues whose consumers feed each other — are the common case.
func runPutAfterProgram(seed int64, after func(s *Sim, q *Queue[int], d time.Duration, v int)) []byte {
	s := NewSim(Epoch1995)
	l := &kernelLog{s: s, steps: make(map[string]int)}
	dur := func(r *rand.Rand, g, maxK int) time.Duration {
		return time.Duration(16*r.Intn(maxK)+g) * 100 * time.Microsecond
	}
	start := func(g int64) *rand.Rand {
		s.Sleep(time.Duration(g) * 100 * time.Microsecond)
		return rand.New(rand.NewSource(seed*10 + g))
	}

	s.Run(func() {
		qa := NewQueue[int](s) // -> ca (Get), which forwards every third value to qb
		qb := NewQueue[int](s) // -> cb (GetTimeout); closed mid-run with items in flight
		var qbClosed atomic.Bool
		pdone := NewQueue[struct{}](s)
		cdone := NewQueue[struct{}](s)

		producer := func(g int64, who string, base int) {
			r := start(g)
			for i := 0; i < 60; i++ {
				switch r.Intn(8) {
				case 0:
					s.Sleep(0)
				default:
					s.Sleep(dur(r, int(g), 4))
				}
				d := dur(r, int(g), 5)
				if g == 1 && r.Intn(6) == 0 {
					d = -d // lands at the current instant
				}
				for n := 1 + r.Intn(3); n > 0; n-- {
					v := base + 10*i + n
					if r.Intn(2) == 0 {
						after(s, qa, d, v)
					} else {
						after(s, qb, d, v)
					}
				}
				l.add(who, "sent burst %d", i)
			}
			s.Sleep(dur(r, int(g), 40)) // let everything land
			pdone.Put(struct{}{})
		}
		s.Go(func() { producer(1, "p1", 1000) })
		s.Go(func() { producer(2, "p2", 2000) })

		s.Go(func() {
			r := start(3)
			for {
				v, ok := qa.Get()
				if !ok {
					break
				}
				l.add("ca", "got %d", v)
				if v%3 == 0 {
					qb.Put(-v)
				}
				if r.Intn(3) == 0 {
					s.Sleep(dur(r, 3, 3))
				}
			}
			l.add("ca", "closed")
			cdone.Put(struct{}{})
		})
		s.Go(func() {
			r := start(4)
			for {
				v, ok := qb.GetTimeout(dur(r, 4, 3))
				l.add("cb", "got %d %v", v, ok)
				if !ok {
					if qbClosed.Load() {
						break
					}
					if r.Intn(4) == 0 {
						s.Sleep(dur(r, 4, 2))
					}
				}
			}
			cdone.Put(struct{}{})
		})
		// The closer shuts qb while both producers still aim at it.
		s.Go(func() {
			r := start(5)
			s.Sleep(40*time.Millisecond + dur(r, 5, 20)) // mid-run
			qbClosed.Store(true)
			qb.Close()
			l.add("closer", "closed qb")
			pdone.Put(struct{}{})
		})

		for i := 0; i < 3; i++ {
			pdone.Get()
		}
		qa.Close()
		for i := 0; i < 2; i++ {
			cdone.Get()
		}
		l.add("main", "done")
	})
	return l.bytes()
}

// TestPutAfterMatchesAfterFuncPut is PutAfter's contract: the same
// program written with AfterFunc+Put observes the same things at the same
// times, tie for tie.
func TestPutAfterMatchesAfterFuncPut(t *testing.T) {
	putAfter := func(s *Sim, q *Queue[int], d time.Duration, v int) { q.PutAfter(d, v) }
	afterFuncPut := func(s *Sim, q *Queue[int], d time.Duration, v int) {
		s.AfterFunc(d, func() { q.Put(v) })
	}
	for i := 0; i < 100; i++ {
		seed := int64(i%10 + 1)
		want := runPutAfterProgram(seed, afterFuncPut)
		got := runPutAfterProgram(seed, putAfter)
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d, seed %d: PutAfter log differs from AfterFunc+Put:\n%s", i, seed, firstDiff(got, want))
		}
		if i < 10 && bytes.Count(got, []byte("\n")) < 200 {
			t.Fatalf("seed %d: program logged only %d lines", seed, bytes.Count(got, []byte("\n")))
		}
	}
}
