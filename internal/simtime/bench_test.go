package simtime

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The kernel's alloc fences, enforced by benchgate against
// bench_baseline.json: blocking on the clock costs no garbage, whether
// the clock advances inline or through park.

// oneP runs a benchmark whose goroutines wake each other on a single P.
// With an idle P the Go runtime may answer a wakeup by starting an OS
// thread, and that thread's bookkeeping (~5 KB, once per process, whenever
// it first happens) is charged to the benchmark that happens to be timing.
func oneP(b *testing.B) {
	prev := runtime.GOMAXPROCS(1)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func BenchmarkAllocSimSleep(b *testing.B) {
	// The caller is the only runnable goroutine: every sleep is an
	// assignment to the clock.
	b.Run("sole", func(b *testing.B) {
		s := NewSim(Epoch1995)
		s.Run(func() {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sleep(time.Millisecond)
			}
		})
	})
	// A second goroutine sleeps in step, so each sleeper always finds
	// the other's wakeup due no later than its own and parks.
	b.Run("paired", func(b *testing.B) {
		oneP(b)
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
			s.Sleep(time.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sleep(time.Millisecond)
			}
			b.StopTimer()
			stop.Store(true)
			done.Get()
		})
	})
}

// BenchmarkAllocQueueHandoff is one round trip between two goroutines:
// two Puts, each either handed to the parked peer or buffered for it,
// depending on who reaches the lock first.
func BenchmarkAllocQueueHandoff(b *testing.B) {
	oneP(b)
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
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Put(i)
			pong.Get()
		}
		b.StopTimer()
		ping.Close()
	})
}
