package simtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSimSleepAdvancesVirtualTime(t *testing.T) {
	s := NewSim(Epoch1995)
	start := time.Now()
	s.Run(func() {
		s.Sleep(45 * time.Minute)
	})
	if got := s.Now().Sub(Epoch1995); got != 45*time.Minute {
		t.Errorf("virtual elapsed = %v, want 45m", got)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Errorf("wall elapsed = %v; virtual sleep should be near-instant", wall)
	}
}

func TestSimSleepZeroAndNegative(t *testing.T) {
	s := NewSim(Epoch1995)
	s.Run(func() {
		s.Sleep(0)
		s.Sleep(-time.Second)
	})
	if !s.Now().Equal(Epoch1995) {
		t.Errorf("time moved on zero/negative sleep: %v", s.Now())
	}
}

func TestSimSleepersWakeInOrder(t *testing.T) {
	s := NewSim(Epoch1995)
	var mu sync.Mutex
	var order []int
	s.Run(func() {
		done := NewQueue[struct{}](s)
		delays := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
		for i, d := range delays {
			i, d := i, d
			s.Go(func() {
				s.Sleep(d)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				done.Put(struct{}{})
			})
		}
		for range delays {
			done.Get()
		}
	})
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestSimEqualDeadlinesFireFIFO(t *testing.T) {
	s := NewSim(Epoch1995)
	var mu sync.Mutex
	var order []int
	s.Run(func() {
		done := NewQueue[struct{}](s)
		for i := 0; i < 10; i++ {
			i := i
			s.AfterFunc(time.Second, func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				done.Put(struct{}{})
			})
		}
		for i := 0; i < 10; i++ {
			done.Get()
		}
	})
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("equal-deadline order = %v, want ascending", order)
		}
	}
}

func TestSimAfterFuncFiresAtDeadline(t *testing.T) {
	s := NewSim(Epoch1995)
	var firedAt time.Time
	s.Run(func() {
		done := NewQueue[struct{}](s)
		s.AfterFunc(90*time.Second, func() {
			firedAt = s.Now()
			done.Put(struct{}{})
		})
		done.Get()
	})
	if got := firedAt.Sub(Epoch1995); got != 90*time.Second {
		t.Errorf("fired at +%v, want +90s", got)
	}
}

func TestSimDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected deadlock panic")
		}
	}()
	s := NewSim(Epoch1995)
	s.Run(func() {
		q := NewQueue[int](s)
		q.Get() // nothing will ever Put
	})
}

func TestSimNestedRunPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected nested-Run panic")
		}
	}()
	s := NewSim(Epoch1995)
	s.Run(func() { s.Run(func() {}) })
}

func TestSimSequentialRunsContinueTime(t *testing.T) {
	s := NewSim(Epoch1995)
	s.Run(func() { s.Sleep(time.Hour) })
	s.Run(func() { s.Sleep(time.Hour) })
	if got := s.Now().Sub(Epoch1995); got != 2*time.Hour {
		t.Errorf("elapsed = %v, want 2h", got)
	}
}

func TestSimProducerConsumer(t *testing.T) {
	s := NewSim(Epoch1995)
	const n = 1000
	var sum int64
	s.Run(func() {
		q := NewQueue[int](s)
		done := NewQueue[struct{}](s)
		s.Go(func() {
			for i := 1; i <= n; i++ {
				s.Sleep(time.Millisecond)
				q.Put(i)
			}
			q.Close()
		})
		s.Go(func() {
			for {
				v, ok := q.Get()
				if !ok {
					break
				}
				atomic.AddInt64(&sum, int64(v))
			}
			done.Put(struct{}{})
		})
		done.Get()
	})
	if sum != n*(n+1)/2 {
		t.Errorf("sum = %d, want %d", sum, n*(n+1)/2)
	}
	if got := s.Now().Sub(Epoch1995); got != n*time.Millisecond {
		t.Errorf("elapsed = %v, want %v", got, n*time.Millisecond)
	}
}

func TestQueueFIFO(t *testing.T) {
	s := NewSim(Epoch1995)
	s.Run(func() {
		q := NewQueue[int](s)
		for i := 0; i < 100; i++ {
			q.Put(i)
		}
		for i := 0; i < 100; i++ {
			v, ok := q.Get()
			if !ok || v != i {
				t.Fatalf("Get #%d = %d,%v", i, v, ok)
			}
		}
	})
}

func TestQueueGetTimeoutExpires(t *testing.T) {
	s := NewSim(Epoch1995)
	s.Run(func() {
		q := NewQueue[int](s)
		before := s.Now()
		_, ok := q.GetTimeout(250 * time.Millisecond)
		if ok {
			t.Error("GetTimeout returned ok on empty queue")
		}
		if got := s.Now().Sub(before); got != 250*time.Millisecond {
			t.Errorf("timeout consumed %v of virtual time, want 250ms", got)
		}
	})
}

func TestQueueGetTimeoutDelivery(t *testing.T) {
	s := NewSim(Epoch1995)
	s.Run(func() {
		q := NewQueue[int](s)
		s.AfterFunc(100*time.Millisecond, func() { q.Put(7) })
		v, ok := q.GetTimeout(time.Second)
		if !ok || v != 7 {
			t.Fatalf("GetTimeout = %d,%v; want 7,true", v, ok)
		}
		// The pending timeout event must have been cancelled: sleeping
		// past the old deadline must not disturb anything.
		s.Sleep(2 * time.Second)
	})
}

func TestQueueCloseWakesWaiters(t *testing.T) {
	s := NewSim(Epoch1995)
	s.Run(func() {
		q := NewQueue[int](s)
		done := NewQueue[bool](s)
		for i := 0; i < 3; i++ {
			s.Go(func() {
				_, ok := q.Get()
				done.Put(ok)
			})
		}
		s.AfterFunc(time.Second, func() { q.Close() })
		for i := 0; i < 3; i++ {
			if ok, _ := done.Get(); ok {
				t.Error("Get on closed queue returned ok")
			}
		}
	})
}

func TestQueueCloseDrainsBufferedItems(t *testing.T) {
	s := NewSim(Epoch1995)
	s.Run(func() {
		q := NewQueue[int](s)
		q.Put(1)
		q.Put(2)
		q.Close()
		if v, ok := q.Get(); !ok || v != 1 {
			t.Fatalf("first Get after close = %d,%v", v, ok)
		}
		if v, ok := q.Get(); !ok || v != 2 {
			t.Fatalf("second Get after close = %d,%v", v, ok)
		}
		if _, ok := q.Get(); ok {
			t.Fatal("Get past drained closed queue returned ok")
		}
	})
}

func TestQueuePutAfterCloseDropped(t *testing.T) {
	s := NewSim(Epoch1995)
	s.Run(func() {
		q := NewQueue[int](s)
		q.Close()
		q.Put(5)
		if q.Len() != 0 {
			t.Error("Put after Close retained item")
		}
	})
}

func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	start := c.Now()
	c.Sleep(10 * time.Millisecond)
	if c.Now().Sub(start) < 10*time.Millisecond {
		t.Error("Real.Sleep returned early")
	}

	q := NewQueue[int](c)
	done := make(chan struct{})
	c.Go(func() {
		q.Put(42)
		close(done)
	})
	<-done
	if v, ok := q.Get(); !ok || v != 42 {
		t.Errorf("real-clock queue Get = %d,%v", v, ok)
	}
}

func TestRealQueueGetTimeout(t *testing.T) {
	q := NewQueue[int](Real{})
	start := time.Now()
	if _, ok := q.GetTimeout(20 * time.Millisecond); ok {
		t.Error("GetTimeout on empty real queue returned ok")
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Error("real GetTimeout returned early")
	}
	go func() {
		//codalint:ignore testhygiene exercising the Real clock needs a genuine wall-clock delay
		time.Sleep(5 * time.Millisecond)
		q.Put(9)
	}()
	if v, ok := q.GetTimeout(2 * time.Second); !ok || v != 9 {
		t.Errorf("GetTimeout = %d,%v", v, ok)
	}
}

// Property: for any set of sleep durations, all sleepers complete, the clock
// ends at the max duration, and each sleeper observes its own wake time.
func TestSimSleepProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 50 {
			raw = raw[:50]
		}
		s := NewSim(Epoch1995)
		okAll := true
		var maxD time.Duration
		s.Run(func() {
			done := NewQueue[struct{}](s)
			for _, r := range raw {
				d := time.Duration(r) * time.Millisecond
				if d > maxD {
					maxD = d
				}
				s.Go(func() {
					s.Sleep(d)
					if s.Now().Sub(Epoch1995) != d {
						okAll = false
					}
					done.Put(struct{}{})
				})
			}
			for range raw {
				done.Get()
			}
		})
		return okAll && s.Now().Sub(Epoch1995) == maxD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a queue delivers exactly the multiset of items put, in FIFO
// order for a single consumer.
func TestQueueDeliveryProperty(t *testing.T) {
	f := func(items []int) bool {
		s := NewSim(Epoch1995)
		ok := true
		s.Run(func() {
			q := NewQueue[int](s)
			s.Go(func() {
				for _, v := range items {
					q.Put(v)
				}
				q.Close()
			})
			i := 0
			for {
				v, alive := q.Get()
				if !alive {
					break
				}
				if i >= len(items) || v != items[i] {
					ok = false
				}
				i++
			}
			if i != len(items) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
