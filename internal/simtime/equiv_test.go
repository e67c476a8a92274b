package simtime

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

var updateKernelLog = flag.Bool("update", false, "rewrite testdata/kernel_order.golden from this kernel")

// kernelLog collects (sim-now, goroutine, step) lines from every goroutine
// of the equivalence program. Lines are sorted before comparison, so the
// log pins what each goroutine observed and when, not the real-time order
// in which concurrently runnable goroutines reached the mutex.
type kernelLog struct {
	s     *Sim
	mu    sync.Mutex
	steps map[string]int
	lines []kernelLine
}

type kernelLine struct {
	at   time.Duration
	who  string
	step int
	what string
}

func (l *kernelLog) add(who, format string, args ...any) {
	at := l.s.Now().Sub(Epoch1995)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, kernelLine{at, who, l.steps[who], fmt.Sprintf(format, args...)})
	l.steps[who]++
}

func (l *kernelLog) bytes() []byte {
	sort.Slice(l.lines, func(i, j int) bool {
		a, b := l.lines[i], l.lines[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.who != b.who {
			return a.who < b.who
		}
		return a.step < b.step
	})
	var buf bytes.Buffer
	for _, ln := range l.lines {
		fmt.Fprintf(&buf, "%d %s %d %s\n", ln.at.Microseconds(), ln.who, ln.step, ln.what)
	}
	return buf.Bytes()
}

// runKernelProgram drives eight tracked goroutines (plus timer callbacks)
// through every kernel primitive and returns the sorted observation log.
//
// The program is deterministic on any correct kernel because goroutines
// that are runnable at the same instant never contend: goroutine g only
// uses durations of the form (16k+g)·100µs, so events scheduled
// concurrently (always from the same instant — time stands still while
// anyone runs) never tie; every queue whose values are logged has one
// consumer; goroutines stagger their start; and goroutines woken by
// separate events are serialised by the kernel itself. Ties between events scheduled at different instants are
// frequent, and their FIFO order is exactly what the log pins.
func runKernelProgram(seed int64) []byte {
	s := NewSim(Epoch1995)
	l := &kernelLog{s: s, steps: make(map[string]int)}
	dur := func(r *rand.Rand, g, maxK int) time.Duration {
		return time.Duration(16*r.Intn(maxK)+g) * 100 * time.Microsecond
	}
	// start staggers goroutine g's first move: Go starts all of them
	// runnable at the same instant.
	start := func(g int64) *rand.Rand {
		s.Sleep(time.Duration(g) * 100 * time.Microsecond)
		return rand.New(rand.NewSource(seed*10 + g))
	}

	s.Run(func() {
		qa := NewQueue[int](s) // p1, p2 -> ca (Get)
		qb := NewQueue[int](s) // timer callbacks -> cb (GetTimeout)
		qc := NewQueue[int](s) // p2 -> cc1 (Get), cc2 (GetTimeout); values not logged
		pdone := NewQueue[struct{}](s)
		cdone := NewQueue[struct{}](s)

		// p1: the only goroutine that sleeps for d <= 0.
		s.Go(func() {
			r := start(1)
			for i := 0; i < 60; i++ {
				switch r.Intn(6) {
				case 0:
					s.Sleep(0)
				case 1:
					s.Sleep(-time.Millisecond)
				default:
					s.Sleep(dur(r, 1, 4))
				}
				qa.Put(1000 + i)
				l.add("p1", "put %d", 1000+i)
			}
			s.Sleep(dur(r, 1, 4))
			pdone.Put(struct{}{})
		})

		// p2: feeds qa and, in bursts, the two-consumer queue.
		s.Go(func() {
			r := start(2)
			for i := 0; i < 60; i++ {
				s.Sleep(dur(r, 2, 4))
				qa.Put(2000 + i)
				for n := r.Intn(3); n > 0; n-- {
					qc.Put(i)
				}
				l.add("p2", "put %d", 2000+i)
			}
			s.Sleep(dur(r, 2, 4))
			pdone.Put(struct{}{})
		})

		// tm: arms timers whose callbacks feed qb.
		s.Go(func() {
			r := start(3)
			for i := 0; i < 40; i++ {
				i := i
				who := fmt.Sprintf("t%02d", i)
				s.AfterFunc(dur(r, 3, 6), func() {
					l.add(who, "fire")
					qb.Put(i)
				})
				s.Sleep(dur(r, 3, 3))
			}
			s.Sleep(dur(r, 3, 40)) // let the stragglers fire
			pdone.Put(struct{}{})
		})

		// ca: sole consumer of qa; the values pin FIFO order at ties.
		s.Go(func() {
			r := start(4)
			for {
				v, ok := qa.Get()
				if !ok {
					break
				}
				l.add("ca", "got %d", v)
				if r.Intn(3) == 0 {
					s.Sleep(dur(r, 4, 3))
				}
			}
			l.add("ca", "closed")
			cdone.Put(struct{}{})
		})

		// cb: sole consumer of qb, always with a deadline.
		s.Go(func() {
			r := start(5)
			for i := 0; i < 90; i++ {
				v, ok := qb.GetTimeout(dur(r, 5, 3))
				l.add("cb", "got %d %v", v, ok)
				if !ok && r.Intn(4) == 0 {
					s.Sleep(dur(r, 5, 2))
				}
			}
			cdone.Put(struct{}{})
		})

		// cc1, cc2: two consumers of one queue. Each sleeps after every
		// item, so they queue up at distinct instants and the hand-off
		// order among waiters is deterministic.
		s.Go(func() {
			r := start(6)
			for {
				if _, ok := qc.Get(); !ok {
					break
				}
				l.add("cc1", "got")
				s.Sleep(dur(r, 6, 3))
			}
			l.add("cc1", "closed")
			cdone.Put(struct{}{})
		})
		s.Go(func() {
			r := start(7)
			for i := 0; i < 70; i++ {
				_, ok := qc.GetTimeout(dur(r, 7, 5))
				l.add("cc2", "got %v", ok)
				s.Sleep(dur(r, 7, 3))
			}
			cdone.Put(struct{}{})
		})

		for i := 0; i < 3; i++ {
			pdone.Get()
		}
		l.add("main", "producers done, %d events pending", s.Pending())
		qa.Close()
		qb.Close()
		qc.Close()
		for i := 0; i < 4; i++ {
			cdone.Get()
		}
		l.add("main", "done")
	})
	return l.bytes()
}

// TestEventOrderMatchesParentKernel replays the equivalence program and
// demands the log the previous kernel (container/heap, tombstoned cancels,
// park-always Sleep, wake-and-repop Put) wrote for it: testdata/
// kernel_order.golden was generated at the parent commit of the change
// that introduced the inline advance, and no kernel change may move a
// line of it.
func TestEventOrderMatchesParentKernel(t *testing.T) {
	golden := filepath.Join("testdata", "kernel_order.golden")
	if *updateKernelLog {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, runKernelProgram(1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		got := runKernelProgram(1)
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d: kernel log differs from the parent kernel's:\n%s", i, firstDiff(got, want))
		}
	}
}

func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
