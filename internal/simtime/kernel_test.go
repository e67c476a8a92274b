package simtime

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// scheduled reports how many events s has ever scheduled. An inline
// advance schedules none, so the tests below tell the two paths of Sleep
// and GetTimeout apart by it.
func scheduled(s *Sim) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// queued reports how many procs wait in s's run queue.
func queued(s *Sim) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for p := s.head; p != nil; p = p.next {
		n++
	}
	return n
}

// yieldAWhile gives other goroutines of the process a chance to run, so a
// test can tell that a proc queued outside Run does not.
func yieldAWhile() {
	for range 100 {
		runtime.Gosched()
	}
}

// awaitParked spins (in real time) until n tracked goroutines are parked.
func awaitParked(s *Sim, n int) {
	for {
		s.mu.Lock()
		p := s.parked
		s.mu.Unlock()
		if p == n {
			return
		}
		runtime.Gosched()
	}
}

func TestInlineAdvance(t *testing.T) {
	elapsed := func(s *Sim) time.Duration { return s.Now().Sub(Epoch1995) }

	t.Run("sole runnable goroutine advances without an event", func(t *testing.T) {
		s := NewSim(Epoch1995)
		s.Run(func() {
			s.Sleep(time.Second)
			q := NewQueue[int](s)
			if _, ok := q.GetTimeout(time.Second); ok {
				t.Error("GetTimeout on an empty queue returned an item")
			}
		})
		if got := elapsed(s); got != 2*time.Second {
			t.Errorf("elapsed = %v, want 2s", got)
		}
		if n := scheduled(s); n != 0 {
			t.Errorf("scheduled %d events; Sleep and GetTimeout should have advanced inline", n)
		}
	})

	t.Run("event at exactly now+d fires before the sleeper resumes", func(t *testing.T) {
		s := NewSim(Epoch1995)
		var fired atomic.Bool
		s.Run(func() {
			s.AfterFunc(10*time.Millisecond, func() { fired.Store(true) })
			s.Sleep(10 * time.Millisecond)
			if !fired.Load() {
				t.Error("sleeper resumed before the earlier-scheduled event at the same instant")
			}
		})
		if n := scheduled(s); n != 2 {
			t.Errorf("scheduled %d events, want 2 (the tie must take the park path)", n)
		}
	})

	t.Run("cancelled timer at the heap top does not block the advance", func(t *testing.T) {
		s := NewSim(Epoch1995)
		s.Run(func() {
			q := NewQueue[int](s)
			got := NewQueue[bool](s)
			s.AfterFunc(time.Hour, func() {})
			s.Go(func() {
				_, ok := q.GetTimeout(5 * time.Millisecond) // the heap's top
				got.Put(ok)
			})
			s.Sleep(0) // the consumer arms its deadline and parks
			q.Put(1)   // answered before the deadline, which is cancelled
			if ok, _ := got.Get(); !ok {
				t.Error("GetTimeout timed out although answered first")
			}
			if n := s.Pending(); n != 1 {
				t.Errorf("Pending = %d after the answer, want 1 (cancel removes, not tombstones)", n)
			}
			before := scheduled(s)
			s.Sleep(10 * time.Millisecond)
			if scheduled(s) != before {
				t.Error("Sleep parked although the only earlier event was cancelled")
			}
		})
		if got := elapsed(s); got != 10*time.Millisecond {
			t.Errorf("elapsed = %v, want 10ms", got)
		}
	})

	t.Run("d <= 0", func(t *testing.T) {
		s := NewSim(Epoch1995)
		var fired atomic.Bool
		s.Run(func() {
			s.Sleep(0)
			s.Sleep(-time.Second)
			if n := scheduled(s); n != 0 {
				t.Errorf("scheduled %d events for non-positive sleeps with nothing due", n)
			}
			// Something due now: the sleep still yields to it.
			s.AfterFunc(0, func() { fired.Store(true) })
			s.Sleep(0)
			if !fired.Load() {
				t.Error("Sleep(0) did not yield to an event due at the current instant")
			}
			q := NewQueue[int](s)
			if _, ok := q.GetTimeout(0); ok {
				t.Error("GetTimeout(0) returned an item")
			}
		})
		if got := elapsed(s); got != 0 {
			t.Errorf("elapsed = %v, want 0", got)
		}
	})

	t.Run("AfterFunc due inside the sleep window", func(t *testing.T) {
		s := NewSim(Epoch1995)
		var firedAt atomic.Int64
		s.Run(func() {
			q := NewQueue[int](s)
			s.AfterFunc(5*time.Millisecond, func() {
				firedAt.Store(int64(elapsed(s)))
				q.Put(7)
			})
			s.Sleep(10 * time.Millisecond)
			if got := time.Duration(firedAt.Load()); got != 5*time.Millisecond {
				t.Errorf("timer fired at +%v, want +5ms", got)
			}
			if got := elapsed(s); got != 10*time.Millisecond {
				t.Errorf("sleeper resumed at +%v, want +10ms", got)
			}
			// And the same through GetTimeout: the Put arrives first.
			s.AfterFunc(5*time.Millisecond, func() { q.Put(8) })
			q.GetTimeout(0)
			if v, ok := q.GetTimeout(time.Second); !ok || v != 8 {
				t.Errorf("GetTimeout = %d, %v; want 8 from the timer", v, ok)
			}
			if got := elapsed(s); got != 15*time.Millisecond {
				t.Errorf("GetTimeout returned at +%v, want +15ms", got)
			}
		})
	})

	t.Run("two runnable goroutines park", func(t *testing.T) {
		s := NewSim(Epoch1995)
		s.Run(func() {
			done := NewQueue[int](s)
			s.Go(func() {
				// Runnable (not parked) until the main goroutine has
				// gone to sleep: it must find that sleep in the heap.
				awaitParked(s, 1)
				done.Put(s.Pending())
			})
			s.Sleep(time.Millisecond)
			if pending, _ := done.Get(); pending != 1 {
				t.Errorf("Pending = %d while the sleeper was parked, want 1", pending)
			}
		})
		if got := elapsed(s); got != time.Millisecond {
			t.Errorf("elapsed = %v, want 1ms", got)
		}
	})

	t.Run("Sleep after Run returned still freezes", func(t *testing.T) {
		s := NewSim(Epoch1995)
		s.Run(func() {})
		var started, woke atomic.Bool
		s.Go(func() {
			started.Store(true)
			s.Sleep(time.Second)
			woke.Store(true)
		})
		yieldAWhile()
		if started.Load() || queued(s) != 1 || elapsed(s) != 0 {
			t.Fatalf("outside Run a proc ran or time moved: started=%v queued=%d elapsed=%v",
				started.Load(), queued(s), elapsed(s))
		}
		// The next Run runs it, from the frozen instant, and thaws it.
		s.Run(func() { s.Sleep(2 * time.Second) })
		if !woke.Load() {
			t.Error("frozen sleeper did not wake in the next Run")
		}
		if got := elapsed(s); got != 2*time.Second {
			t.Errorf("elapsed = %v, want 2s: the sleeper started at +0", got)
		}
	})

	t.Run("deadlock panic text", func(t *testing.T) {
		const want = "simtime: deadlock at 1995-07-01T09:00:05Z: 1 goroutine(s) parked with no pending events"
		defer func() {
			if got := recover(); got != want {
				t.Errorf("panic = %v\nwant    %v", got, want)
			}
		}()
		s := NewSim(Epoch1995)
		s.Run(func() {
			s.Sleep(5 * time.Second)
			NewQueue[int](s).Get()
		})
	})
}

func TestHandoff(t *testing.T) {
	t.Run("Put hands items to waiters oldest first", func(t *testing.T) {
		s := NewSim(Epoch1995)
		s.Run(func() {
			q := NewQueue[int](s)
			got := NewQueue[[2]int](s)
			for id := 1; id <= 3; id++ {
				s.Go(func() {
					s.Sleep(time.Duration(id) * time.Millisecond) // queue up in id order
					v, _ := q.Get()
					got.Put([2]int{id, v})
				})
			}
			s.Sleep(10 * time.Millisecond)
			// Back to back, with every consumer still parked: no consumer
			// can overtake another on its way back to the lock.
			q.Put(100)
			q.Put(200)
			q.Put(300)
			q.Put(400)
			for i := 0; i < 3; i++ {
				r, _ := got.Get()
				if r[1] != 100*r[0] {
					t.Errorf("consumer %d got %d, want %d", r[0], r[1], 100*r[0])
				}
			}
			if v, ok := q.GetTimeout(0); !ok || v != 400 {
				t.Errorf("GetTimeout(0) = %d, %v; want the unclaimed 400", v, ok)
			}
		})
	})

	t.Run("hand-off disarms the deadline", func(t *testing.T) {
		s := NewSim(Epoch1995)
		s.Run(func() {
			q := NewQueue[int](s)
			got := NewQueue[int](s)
			s.Go(func() {
				v, _ := q.GetTimeout(time.Hour)
				got.Put(v)
			})
			s.Sleep(time.Millisecond)
			if n := s.Pending(); n != 1 {
				t.Fatalf("Pending = %d with one deadline armed, want 1", n)
			}
			q.Put(9)
			if n := s.Pending(); n != 0 {
				t.Errorf("Pending = %d right after the hand-off, want 0", n)
			}
			if v, _ := got.Get(); v != 9 {
				t.Errorf("consumer got %d, want 9", v)
			}
		})
		if got := s.Now().Sub(Epoch1995); got != time.Millisecond {
			t.Errorf("elapsed = %v; the disarmed deadline must not hold the clock", got)
		}
	})

	t.Run("a timed-out waiter is gone", func(t *testing.T) {
		s := NewSim(Epoch1995)
		s.Run(func() {
			q := NewQueue[int](s)
			out := NewQueue[bool](s)
			s.Go(func() {
				_, ok := q.GetTimeout(time.Millisecond)
				out.Put(ok)
			})
			if ok, _ := out.Get(); ok {
				t.Error("GetTimeout returned an item from an empty queue")
			}
			q.Put(1)
			if q.Len() != 1 {
				t.Error("Put handed its item to a waiter that had timed out")
			}
		})
	})

	t.Run("Close releases every waiter", func(t *testing.T) {
		s := NewSim(Epoch1995)
		s.Run(func() {
			q := NewQueue[int](s)
			out := NewQueue[bool](s)
			for i := 0; i < 3; i++ {
				timed := i == 1
				s.Go(func() {
					var ok bool
					if timed {
						_, ok = q.GetTimeout(time.Hour)
					} else {
						_, ok = q.Get()
					}
					out.Put(ok)
				})
			}
			s.Sleep(time.Millisecond)
			q.Close()
			for i := 0; i < 3; i++ {
				if ok, _ := out.Get(); ok {
					t.Error("Get on a closed, empty queue returned ok")
				}
			}
			if n := s.Pending(); n != 0 {
				t.Errorf("Pending = %d after Close, want 0", n)
			}
		})
	})

	t.Run("waiters are recycled", func(t *testing.T) {
		s := NewSim(Epoch1995)
		s.Run(func() {
			q := NewQueue[int](s)
			ack := NewQueue[int](s)
			s.Go(func() {
				for {
					v, ok := q.Get()
					if !ok {
						return
					}
					ack.Put(v)
				}
			})
			var first *waiter
			for i := 0; i < 50; i++ {
				s.Sleep(time.Millisecond) // the consumer is parked again
				s.mu.Lock()
				w := q.waiters
				s.mu.Unlock()
				if first == nil {
					first = w
				} else if w != first {
					t.Fatalf("round %d: consumer parked on a fresh waiter", i)
				}
				q.Put(i)
				if v, _ := ack.Get(); v != i {
					t.Fatalf("round %d: echoed %d", i, v)
				}
			}
			q.Close()
		})
	})
}

// TestRealQueueHandoff: the hand-off and deadline paths under the Real
// clock, where the deadline is a timer goroutine that cannot be disarmed
// once it has started.
func TestRealQueueHandoff(t *testing.T) {
	q := NewQueue[int](Real{})
	got := make(chan int)
	for i := 0; i < 2; i++ {
		go func() {
			for {
				v, ok := q.GetTimeout(50 * time.Microsecond)
				if ok {
					got <- v
				} else if v != 0 {
					t.Error("timeout returned a value")
				}
				if q.isClosed() {
					return
				}
			}
		}()
	}
	for i := 1; i <= 2000; i++ {
		q.Put(i)
		if i%7 == 0 {
			Real{}.Sleep(60 * time.Microsecond) // let deadlines race the next Put
		}
	}
	seen := make(map[int]bool)
	for len(seen) < 2000 {
		v := <-got
		if seen[v] {
			t.Fatalf("item %d delivered twice", v)
		}
		seen[v] = true
	}
	q.Close()
}

func (q *Queue[T]) isClosed() bool {
	q.lock()
	defer q.unlock()
	return q.closed
}
