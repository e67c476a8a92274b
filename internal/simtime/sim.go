package simtime

import (
	"fmt"
	"sync"
	"time"
)

// Sim is a discrete-event virtual clock.
//
// A Sim tracks goroutines: the one that calls Run, plus any started with Go
// or AfterFunc. Virtual time advances only when every tracked goroutine is
// parked inside a simtime primitive (Sleep, Queue.Get, ...). At that moment
// the earliest pending event fires, waking exactly the goroutines it names,
// and execution resumes at the event's timestamp. Events at equal timestamps
// fire in scheduling order (FIFO), which keeps runs reproducible.
//
// A goroutine that blocks while it is the only runnable one, with nothing
// due before its own wakeup, is that earliest event: Sleep and an expiring
// GetTimeout then move the clock with an assignment instead of parking
// (advanceInlineLocked).
//
// If every tracked goroutine is parked and no events are pending, the
// simulation can never progress; Sim panics with a deadlock report.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	seq     int64
	events  eventHeap
	running int      // tracked goroutines currently runnable
	parked  int      // tracked goroutines blocked in a simtime primitive
	inRun   bool     // a Run call is active; time may advance
	free    *sleeper // reusable waiter records for Sleep; see waiter
}

// NewSim returns a Sim whose clock reads start.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Epoch1995 is a convenient simulation start time contemporary with the
// paper's deployment (mid-1995).
var Epoch1995 = time.Date(1995, time.July, 1, 9, 0, 0, 0, time.UTC)

// Run executes fn on the virtual clock, tracking the calling goroutine.
// It returns when fn returns. fn must join (via Queue) any goroutines whose
// completion it depends on: once Run returns, time stops advancing, so
// stragglers parked on the clock stay parked. Run calls must not nest, but
// sequential Run calls on the same Sim continue from the current time.
func (s *Sim) Run(fn func()) {
	s.mu.Lock()
	if s.inRun {
		s.mu.Unlock()
		panic("simtime: nested Sim.Run")
	}
	s.inRun = true
	s.running++
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		s.inRun = false
		s.running--
		s.mu.Unlock()
	}()
	fn()
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Sleep implements Clock.
func (s *Sim) Sleep(d time.Duration) {
	s.mu.Lock()
	if s.advanceInlineLocked(d) {
		s.mu.Unlock()
		return
	}
	w := s.free
	if w != nil {
		s.free = w.next
	} else {
		w = newSleeper(s)
	}
	s.scheduleLocked(&w.ev, d)
	s.parkLocked()
	s.mu.Unlock()

	<-w.ch

	s.mu.Lock()
	w.next = s.free
	s.free = w
	s.mu.Unlock()
}

// advanceInlineLocked moves the clock to now+d without parking when doing
// so is indistinguishable from the park path: a Run is active, the caller
// is the only runnable tracked goroutine, and no event is due at or before
// now+d. Parking would schedule the caller's wakeup as the newest event,
// find the world quiescent, pop that same wakeup (every other event is
// strictly later) and resume the caller at now+d — so it does only the
// assignment. An event due exactly at now+d was scheduled earlier and
// fires first under the FIFO rule, hence "at or before": that case parks.
func (s *Sim) advanceInlineLocked(d time.Duration) bool {
	if !s.inRun || s.running != 1 {
		return false
	}
	if d < 0 {
		d = 0
	}
	wake := s.now.Add(d)
	if len(s.events) > 0 && !s.events[0].when.After(wake) {
		return false
	}
	s.now = wake
	return true
}

// AfterFunc implements Clock.
func (s *Sim) AfterFunc(d time.Duration, fn func()) *Timer {
	s.mu.Lock()
	defer s.mu.Unlock()

	t := &simTimer{s: s}
	t.ev.fire = func() {
		s.running++
		go func() {
			fn()
			s.goExit()
		}()
	}
	s.scheduleLocked(&t.ev, d)
	return &Timer{stop: t.Stop, reset: t.Reset}
}

// Go implements Clock.
func (s *Sim) Go(fn func()) {
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	go func() {
		fn()
		s.goExit()
	}()
}

// Pending reports the number of scheduled events, for tests and diagnostics.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// goExit retires a tracked goroutine started by Go or AfterFunc.
func (s *Sim) goExit() {
	s.mu.Lock()
	s.running--
	s.maybeAdvanceLocked()
	s.mu.Unlock()
}

// scheduleLocked enqueues ev, which must not be pending, to fire at now+d.
// It can be cancelled until it fires. ev.fire runs with s.mu held and must
// only touch Sim-internal state (counters, waiter lists, channels); it must
// not call public Sim or Queue methods.
func (s *Sim) scheduleLocked(ev *event, d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.seq++
	ev.when, ev.seq = s.now.Add(d), s.seq
	s.events.push(ev)
}

// cancelLocked takes ev out of the heap. It reports whether ev was still
// pending. Removal (rather than a tombstone) keeps events[0] live, which is
// what lets advanceInlineLocked decide by reading one entry.
func (s *Sim) cancelLocked(ev *event) bool {
	if ev.index < 0 {
		return false
	}
	s.events.remove(ev.index)
	return true
}

// parkLocked marks the calling goroutine as blocked and, if it was the last
// runnable one, advances virtual time. The caller must hold s.mu, must have
// already registered a wakeup (an event or a queue waiter), and must block
// on that wakeup after releasing s.mu.
func (s *Sim) parkLocked() {
	s.running--
	s.parked++
	if s.running < 0 {
		panic("simtime: park from a goroutine not tracked by this Sim")
	}
	s.maybeAdvanceLocked()
}

// unparkLocked accounts for one parked goroutine becoming runnable. It is
// called from event fires and queue hand-offs, with s.mu held.
func (s *Sim) unparkLocked() {
	s.running++
	s.parked--
}

// maybeAdvanceLocked fires events until some goroutine is runnable again.
func (s *Sim) maybeAdvanceLocked() {
	if !s.inRun {
		return // Run has finished; the simulation is frozen.
	}
	for s.running == 0 {
		if len(s.events) == 0 {
			if s.parked > 0 {
				// Release the lock before panicking so deferred
				// cleanup (Sim.Run's bookkeeping, test recovery) can
				// acquire it during unwinding.
				msg := fmt.Sprintf(
					"simtime: deadlock at %s: %d goroutine(s) parked with no pending events",
					s.now.Format(time.RFC3339), s.parked)
				s.mu.Unlock()
				panic(msg)
			}
			return
		}
		ev := s.events.remove(0)
		if ev.when.After(s.now) {
			s.now = ev.when
		}
		ev.fire()
	}
}

// waiter is the record of one goroutine blocked in a simtime primitive
// under Sim: the channel it blocks on and the event that wakes it at a
// deadline, allocated together once and reused.
//
// Ownership: a waiter belongs to the goroutine blocked on it from the
// moment it leaves a free list until that goroutine puts it back, which it
// does only after receiving its wakeup and with s.mu held. A waker sends
// exactly one token per block, under s.mu, and keeps no reference
// afterwards — the deadline event is out of the heap by then (fired, or
// removed by cancelLocked) — so a recycled waiter can never receive a
// stale wakeup. The channel has one slot so that send never blocks the
// waker, who holds s.mu and may run before the owner reaches its receive.
type waiter struct {
	ev event
	ch chan struct{}
}

// sleeper is Sleep's waiter; its event wakes it and nothing else does.
type sleeper struct {
	waiter
	next *sleeper
}

func newSleeper(s *Sim) *sleeper {
	w := &sleeper{}
	w.ch = make(chan struct{}, 1)
	w.ev.index = -1
	w.ev.fire = func() {
		s.unparkLocked()
		w.ch <- struct{}{}
	}
	return w
}

// simTimer implements Timer.Stop/Reset for the Sim clock.
type simTimer struct {
	s  *Sim
	ev event
}

func (t *simTimer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.s.cancelLocked(&t.ev)
}

func (t *simTimer) Reset(d time.Duration) bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	active := t.s.cancelLocked(&t.ev)
	t.s.scheduleLocked(&t.ev, d)
	return active
}

// event is a pending occurrence in the simulation. Events are embedded in
// the record that owns them (a waiter, a simTimer) and pushed by pointer,
// so scheduling allocates nothing.
type event struct {
	when  time.Time
	seq   int64
	fire  func()
	index int // heap index; -1 while not pending
}

// eventHeap is a binary min-heap of events ordered by (when, seq); seq
// breaks ties FIFO. It is typed rather than container/heap so that push
// and remove do not box through `any`, and it maintains event.index so any
// pending event can be removed in O(log n).
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) push(ev *event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(ev.index)
}

// remove takes the event at index i out of the heap and returns it.
func (h *eventHeap) remove(i int) *event {
	old := *h
	n := len(old) - 1
	ev := old[i]
	if i != n {
		old.swap(i, n)
	}
	old[n] = nil
	*h = old[:n]
	if i != n && !h.down(i) {
		h.up(i)
	}
	ev.index = -1
	return ev
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts the event at i towards the leaves; it reports whether it moved.
func (h eventHeap) down(i int) bool {
	start, n := i, len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			break
		}
		h.swap(i, child)
		i = child
	}
	return i > start
}
