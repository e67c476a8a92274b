package simtime

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runSameInstantProgram makes many goroutines runnable at one instant on
// purpose: eight sleepers with equal durations, whose wakeups tie every
// round, feed one queue drained by three Get consumers and one GetTimeout
// consumer whose deadline ties with the sleepers too. It returns the log
// in the order the lines were appended, unsorted. Every stretch of a
// goroutine between two blocks goes through step, which counts the
// goroutines inside a stretch and yields the processor half way: two
// tracked goroutines running at once find the count above one.
func runSameInstantProgram(t *testing.T) []byte {
	t.Helper()
	const sleepers, consumers, rounds = 8, 3, 20
	s := NewSim(Epoch1995)
	var (
		inside atomic.Int32
		mu     sync.Mutex
		log    bytes.Buffer
	)
	step := func(who, format string, args ...any) {
		if n := inside.Add(1); n != 1 {
			t.Errorf("%s: %d tracked goroutines running at once", who, n)
		}
		mu.Lock()
		fmt.Fprintf(&log, "%d %s %s\n", s.Now().Sub(Epoch1995).Microseconds(), who, fmt.Sprintf(format, args...))
		mu.Unlock()
		runtime.Gosched()
		inside.Add(-1)
	}

	s.Run(func() {
		q := NewQueue[int](s)
		pdone := NewQueue[struct{}](s)
		cdone := NewQueue[struct{}](s)
		for g := range sleepers {
			s.Go(func() {
				for i := range rounds {
					s.Sleep(time.Millisecond)
					step(fmt.Sprintf("s%d", g), "put %d", 100*g+i)
					q.Put(100*g + i)
				}
				pdone.Put(struct{}{})
			})
		}
		for c := range consumers {
			s.Go(func() {
				for {
					v, ok := q.Get()
					if !ok {
						break
					}
					step(fmt.Sprintf("c%d", c), "got %d", v)
				}
				cdone.Put(struct{}{})
			})
		}
		s.Go(func() {
			for {
				v, ok := q.GetTimeout(time.Millisecond)
				if ok {
					step("ct", "got %d", v)
					continue
				}
				step("ct", "timeout")
				if q.isClosed() {
					break
				}
			}
			cdone.Put(struct{}{})
		})
		for range sleepers {
			pdone.Get()
		}
		step("main", "close")
		q.Close()
		for range consumers + 1 {
			cdone.Get()
		}
	})
	return log.Bytes()
}

// TestSameInstantSerial: goroutines runnable at one instant run one at a
// time, in the order they became runnable, so a program full of ties logs
// the same lines in the same order on every run. Runnable order is FIFO:
// the sleepers, started and first put to sleep in index order, wake in
// that order at every instant, and the consumers log their items in the
// order they were put.
func TestSameInstantSerial(t *testing.T) {
	want := runSameInstantProgram(t)
	for i := 1; i < 100; i++ {
		if got := runSameInstantProgram(t); !bytes.Equal(got, want) {
			t.Fatalf("run %d: log differs from run 0's:\n%s", i, firstDiff(got, want))
		}
	}

	var puts, gets []string
	last := map[string]int{} // per instant: the index of the last sleeper to log
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		var at, g int
		var who, verb, v string
		fmt.Sscan(line, &at, &who, &verb, &v)
		switch verb {
		case "put":
			puts = append(puts, v)
			fmt.Sscanf(who, "s%d", &g)
			key := fmt.Sprint(at)
			if prev, ok := last[key]; ok && g <= prev {
				t.Errorf("at %dµs sleeper s%d ran after s%d; wakeups at one instant run FIFO", at, g, prev)
			}
			last[key] = g
		case "got":
			gets = append(gets, v)
		}
	}
	if len(puts) != 8*20 || strings.Join(gets, " ") != strings.Join(puts, " ") {
		t.Errorf("consumers logged %d items out of put order:\nput %v\ngot %v", len(gets), puts, gets)
	}
}

func TestKernelContract(t *testing.T) {
	t.Run("a panic in a tracked goroutine surfaces from Run", func(t *testing.T) {
		s := NewSim(Epoch1995)
		got := func() (v any) {
			defer func() { v = recover() }()
			s.Run(func() {
				s.Go(func() {
					s.Sleep(time.Second)
					panic("boom")
				})
				s.Sleep(time.Hour)
			})
			return nil
		}()
		if got != "boom" {
			t.Errorf("Run panicked with %v, want boom", got)
		}
	})

	t.Run("an untracked Put after Run wakes a goroutine to its next park", func(t *testing.T) {
		s := NewSim(Epoch1995)
		q := NewQueue[int](s)
		var seen, seenAt atomic.Int64
		s.Run(func() {
			s.Go(func() {
				v, _ := q.Get()
				seen.Store(int64(v))
				seenAt.Store(int64(s.Now().Sub(Epoch1995)))
				s.Sleep(time.Second)
				seen.Store(-1)
			})
		})
		q.Put(7) // from the test's goroutine, which the Sim does not track
		yieldAWhile()
		if v, n, elapsed := seen.Load(), queued(s), s.Now().Sub(Epoch1995); v != 0 || n != 1 || elapsed != 0 {
			t.Fatalf("outside Run the woken goroutine ran or time moved: seen %d, queued %d, elapsed %v", v, n, elapsed)
		}
		// The next Run runs it to its next park, the Sleep, at the frozen
		// instant, then thaws that.
		s.Run(func() { s.Sleep(2 * time.Second) })
		if v, at := seen.Load(), time.Duration(seenAt.Load()); v != -1 || at != 0 {
			t.Errorf("the next Run did not run the woken goroutine from +0 through its sleep: seen %d at +%v", v, at)
		}
	})
}
