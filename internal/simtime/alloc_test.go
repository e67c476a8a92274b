//go:build !race

package simtime

import (
	"sync/atomic"
	"testing"
	"time"
)

// The kernel's alloc fences: blocking on the clock costs no garbage,
// whether the clock advances inline or through park. AllocsPerRun runs
// on one P, so a wakeup never starts an OS thread whose bookkeeping
// would be charged to the fence. The race detector adds allocations of
// its own, so these run only without it.

func TestAllocSimSleep(t *testing.T) {
	// The caller is the only runnable goroutine: every sleep is an
	// assignment to the clock.
	t.Run("sole", func(t *testing.T) {
		s := NewSim(Epoch1995)
		s.Run(func() {
			if allocs := testing.AllocsPerRun(200, func() { s.Sleep(time.Millisecond) }); allocs > 0 {
				t.Errorf("Sleep: %v allocs, want 0", allocs)
			}
		})
	})
	// A second goroutine sleeps in step, so each sleeper always finds
	// the other's wakeup due no later than its own and parks.
	t.Run("paired", func(t *testing.T) {
		s := NewSim(Epoch1995)
		s.Run(func() {
			var stop atomic.Bool
			done := NewQueue[struct{}](s)
			s.Go(func() {
				for !stop.Load() {
					s.Sleep(time.Millisecond)
				}
				done.Put(struct{}{})
			})
			s.Sleep(time.Millisecond) // both waiters exist, the heap has its two slots
			if allocs := testing.AllocsPerRun(200, func() { s.Sleep(time.Millisecond) }); allocs > 0 {
				t.Errorf("Sleep: %v allocs, want 0", allocs)
			}
			stop.Store(true)
			done.Get()
		})
	})
}

// TestAllocQueueHandoff is one round trip between two goroutines: two
// Puts, each either handed to the parked peer or buffered for it,
// depending on who reaches the lock first.
func TestAllocQueueHandoff(t *testing.T) {
	s := NewSim(Epoch1995)
	s.Run(func() {
		ping, pong := NewQueue[int](s), NewQueue[int](s)
		s.Go(func() {
			for {
				v, ok := ping.Get()
				if !ok {
					return
				}
				pong.Put(v)
			}
		})
		ping.Put(0) // warm both waiters and both buffers
		pong.Get()
		allocs := testing.AllocsPerRun(200, func() {
			ping.Put(1)
			pong.Get()
		})
		if allocs > 0 {
			t.Errorf("Put/Get round trip: %v allocs, want 0", allocs)
		}
		ping.Close()
	})
}

// TestAllocSimGo: once a carrier is idle, a Go of a function that
// returns without parking runs on it and costs only its closure.
func TestAllocSimGo(t *testing.T) {
	s := NewSim(Epoch1995)
	s.Run(func() {
		var n int
		spawn := func() {
			s.Go(func() { n++ })
			s.Sleep(0) // the new goroutine runs, returns and leaves its carrier idle
		}
		spawn()
		if allocs := testing.AllocsPerRun(200, spawn); allocs > 1 {
			t.Errorf("Go: %v allocs, want ≤ 1", allocs)
		}
		if n != 202 {
			t.Errorf("%d goroutines ran, want 202", n)
		}
	})
}
