package simtime

import (
	"fmt"
	"iter"
	"math"
	"sync"
	"time"
)

// Sim is a discrete-event virtual clock.
//
// A Sim tracks goroutines ("procs"): the one that calls Run, plus any
// started with Go or AfterFunc. It runs exactly one of them at a time. The
// others wait in a FIFO run queue or are parked inside a simtime primitive
// (Sleep, Queue.Get, ...). A proc gives up the processor only by parking
// or returning; then the oldest runnable proc runs. Procs started by Go or
// AfterFunc run on carriers, coroutines made with iter.Pull, so switching
// between procs is a direct goroutine switch that involves no scheduler
// wake-up; a finished proc's carrier runs the next Go or AfterFunc of the
// same Run.
//
// Virtual time advances only when the run queue is empty. Then the
// earliest pending event fires, which makes runnable exactly the procs it
// names, and execution resumes at the event's timestamp. Events at equal
// timestamps fire in scheduling order (FIFO), and procs run in the order
// they became runnable, which keeps runs reproducible. A queue's Serve
// handler takes a place in the run queue too, but as no goroutine: the
// kernel loop calls it itself (see Queue.Serve).
//
// A proc that blocks with the run queue empty and nothing due before its
// own wakeup is that earliest event: Sleep and an expiring GetTimeout then
// move the clock with an assignment instead of parking
// (advanceInlineLocked).
//
// Procs run only inside Run. One woken or started outside a Run (a Put
// from an untracked goroutine, a Go after Run returned) waits in the run
// queue, with time frozen, and runs in the next Run.
//
// If every tracked goroutine is parked and no events are pending, the
// simulation can never progress; Sim panics with a deadlock report.
type Sim struct {
	mu     sync.Mutex
	now    time.Time
	at     int64 // now as an offset from the start, in ns: the heap's key (see after)
	seq    int64
	events eventHeap
	head   *proc // the run queue, oldest first, linked through proc.next,
	tail   *proc // ends at tail
	cur    *proc // the proc running now; nil when none is
	parked int   // procs blocked in a simtime primitive
	inRun  bool  // a Run call is active
	live   bool  // that Run's fn has not returned: time may advance
	idle   *proc // carriers whose proc returned during this Run, for reuse
	main   proc  // the goroutine that calls Run; it runs on no carrier
}

// NewSim returns a Sim whose clock reads start.
func NewSim(start time.Time) *Sim {
	s := &Sim{now: start}
	s.main.init(s)
	return s
}

// Epoch1995 is a convenient simulation start time contemporary with the
// paper's deployment (mid-1995).
var Epoch1995 = time.Date(1995, time.July, 1, 9, 0, 0, 0, time.UTC)

// Run executes fn on the virtual clock, tracking the calling goroutine.
// Procs already in the run queue (woken or started since the last Run)
// run once fn parks. Run returns once fn has returned and the run queue
// is empty; procs that became runnable before then run to their next
// park, but time does not move. fn must join (via Queue) any goroutines
// whose completion it depends on: once fn returns, time stops advancing,
// so stragglers parked on the clock stay parked. Run calls must not nest,
// but sequential Run calls on the same Sim continue from the current
// time.
//
// A panic in any tracked goroutine surfaces from Run with its value, and a
// runtime.Goexit in one (a t.FailNow) ends Run's goroutine, because a
// carrier hands both to the goroutine that switched into it.
func (s *Sim) Run(fn func()) {
	s.mu.Lock()
	if s.inRun {
		s.mu.Unlock()
		panic("simtime: nested Sim.Run")
	}
	s.inRun, s.live, s.cur = true, true, &s.main
	s.mu.Unlock()
	defer s.endRun()

	fn()

	s.mu.Lock()
	s.live, s.cur = false, nil
	s.runLocked(nil)
	s.mu.Unlock()
}

// endRun closes a Run, normally or on the way out of a panic: no proc
// runs any more, and the idle carriers end.
func (s *Sim) endRun() {
	s.mu.Lock()
	s.inRun, s.live, s.cur = false, false, nil
	idle := s.idle
	s.idle = nil
	s.mu.Unlock()
	for p := idle; p != nil; p = p.next {
		p.stop()
	}
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
	if !s.advanceInlineLocked(d) {
		p := s.curLocked()
		s.scheduleLocked(&p.ev, d)
		s.parkLocked(p)
	}
	s.mu.Unlock()
}

// advanceInlineLocked moves the clock to now+d without parking when doing
// so is indistinguishable from the park path: a Run's fn is live, the
// caller is the current proc with nobody in the run queue behind it, and
// no event is due at or before now+d. Parking would schedule the caller's
// wakeup as the newest event, find the run queue empty, pop that same
// wakeup (every other event is strictly later) and resume the caller at
// now+d — so it does only the assignment. An event due exactly at now+d
// was scheduled earlier and fires first under the FIFO rule, hence "at or
// before": that case parks, and so does a wakeup past where heap keys
// saturate (maxAt).
func (s *Sim) advanceInlineLocked(d time.Duration) bool {
	if !s.live || s.head != nil || (s.cur != nil && s.cur.drain != nil) {
		return false // a Serve handler goes on to park, which panics
	}
	if d < 0 {
		d = 0
	}
	wake := s.after(d)
	if len(s.events) > 0 && s.events[0].at <= wake {
		return false
	}
	s.now, s.at = s.now.Add(d), wake
	return true
}

// after is the heap key of now+d, d >= 0: its offset from the start,
// saturating at maxAt as Time.Sub does.
func (s *Sim) after(d time.Duration) int64 {
	if s.at > maxAt-int64(d) {
		return maxAt
	}
	return s.at + int64(d)
}

// AfterFunc runs fn d from now as a new tracked goroutine: when the timer
// fires, fn joins the back of the run queue. It cannot be cancelled.
func (s *Sim) AfterFunc(d time.Duration, fn func()) {
	s.startTimer(&simTimer{fn: fn}, d)
}

// startTimer schedules t, whose fn is set and which is not pending, to
// fire d from now.
func (s *Sim) startTimer(t *simTimer, d time.Duration) {
	t.s = s
	t.ev = event{owner: t, index: -1}
	s.mu.Lock()
	s.scheduleLocked(&t.ev, d)
	s.mu.Unlock()
}

// Go implements Clock. fn joins the back of the run queue; outside Run it
// waits there for the next Run.
func (s *Sim) Go(fn func()) {
	s.mu.Lock()
	s.spawnLocked(fn)
	s.mu.Unlock()
}

// Pending reports the number of scheduled events, for tests and diagnostics.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// spawnLocked makes fn a runnable proc, on an idle carrier if there is one.
func (s *Sim) spawnLocked(fn func()) {
	p := s.idle
	if p != nil {
		s.idle = p.next
	} else {
		p = &proc{}
		p.init(s)
		newCarrier(p)
	}
	p.fn = fn
	s.readyLocked(p)
}

// readyLocked appends p to the run queue.
func (s *Sim) readyLocked(p *proc) {
	p.next = nil
	if s.tail == nil {
		s.head = p
	} else {
		s.tail.next = p
	}
	s.tail = p
}

// wakeLocked makes a parked proc runnable: an event fire or a queue
// hand-off, with s.mu held.
func (s *Sim) wakeLocked(p *proc) {
	s.parked--
	s.readyLocked(p)
}

// curLocked returns the running proc: the caller, which is about to park.
func (s *Sim) curLocked() *proc {
	p := s.cur
	if p == nil || p.drain != nil {
		msg := "simtime: park from a goroutine not tracked by this Sim"
		if p != nil {
			msg = "simtime: a Queue.Serve handler parked"
		}
		s.mu.Unlock()
		panic(msg)
	}
	return p
}

// parkLocked blocks p, the caller, until something wakes it. The caller
// holds s.mu, has registered its wakeup (an event or a queue waiter), and
// holds s.mu again when parkLocked returns. The main proc runs the kernel
// loop itself until its turn comes back; a carrier switches back to that
// loop, handing it s.mu, and gets s.mu back with its next turn.
func (s *Sim) parkLocked(p *proc) {
	s.parked++
	if p == &s.main {
		s.runLocked(p)
		return
	}
	p.yield(struct{}{})
}

// runLocked is the kernel loop, run with s.mu held by Run's goroutine. It
// switches into the oldest runnable proc, handing it s.mu, and takes s.mu
// back when that proc parks or returns. When the run queue is empty it
// fires events until some proc is runnable again — only when self, the
// parked main proc, is waiting, since time moves only while a Run's fn is
// live. It returns when self's turn comes, or, for self == nil, when
// nobody is runnable.
func (s *Sim) runLocked(self *proc) {
	for {
		p := s.head
		if p == nil {
			if self == nil {
				return
			}
			if len(s.events) == 0 {
				// Release the lock before panicking so deferred
				// cleanup (Sim.Run's bookkeeping, test recovery) can
				// acquire it during unwinding.
				msg := fmt.Sprintf(
					"simtime: deadlock at %s: %d goroutine(s) parked with no pending events",
					s.now.Format(time.RFC3339), s.parked)
				s.mu.Unlock()
				panic(msg)
			}
			s.popLocked().owner.fire()
			continue
		}
		s.head = p.next
		if s.head == nil {
			s.tail = nil
		}
		p.next = nil
		s.cur = p
		if p == self {
			return
		}
		if p.drain != nil { // a Queue.Serve entry: it runs here, on no carrier
			p.drain()
			s.cur = nil
			continue
		}
		p.resume()
		s.cur = nil
		if p.fn == nil { // it returned: its carrier is free
			p.next = s.idle
			s.idle = p
		}
	}
}

// scheduleLocked enqueues ev, which must not be pending, to fire at now+d.
// It can be cancelled until it fires. ev's owner fires with s.mu held and
// must only touch Sim-internal state (counters, waiter lists, the run
// queue); it must not call public Sim or Queue methods.
func (s *Sim) scheduleLocked(ev *event, d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.seq++
	ev.when = s.now.Add(d)
	s.events.push(heapSlot{at: s.after(d), seq: s.seq, ev: ev})
}

// cancelLocked takes ev out of the heap if it is pending. Removal (rather
// than a tombstone) keeps events[0] live, which is what lets
// advanceInlineLocked decide by reading one entry.
func (s *Sim) cancelLocked(ev *event) {
	if ev.index >= 0 {
		s.events.remove(ev.index)
	}
}

// popLocked takes the earliest event out of the heap and moves the clock
// to it.
func (s *Sim) popLocked() *event {
	at := s.events[0].at
	ev := s.events.remove(0)
	if ev.when.After(s.now) {
		s.now, s.at = ev.when, at
	}
	return ev
}

// proc is one tracked goroutine and the waiter it blocks on. Every proc
// but a Sim's main one runs on a carrier: a coroutine (iter.Pull; see
// newCarrier) whose body runs fn, then reports back to the kernel loop
// and waits for the next fn. A Queue.Serve entry is a proc on no carrier
// either: it has drain, which the kernel loop calls itself.
type proc struct {
	waiter
	s      *Sim
	fn     func()                  // what the carrier runs; nil once it has returned
	drain  func()                  // a Serve entry's turn, run by the kernel loop with s.mu held
	resume func() (struct{}, bool) // switch into the carrier, from the kernel loop
	stop   func()                  // end the carrier, which must be idle
	yield  func(struct{}) bool     // switch back to the kernel loop, from the carrier
	next   *proc                   // run queue or idle list
}

// newCarrier gives p its carrier, a coroutine that runs p.carry. Race
// builds replace it (carrier_race.go).
var newCarrier = func(p *proc) {
	p.resume, p.stop = iter.Pull(p.carry)
}

func (p *proc) init(s *Sim) {
	p.s = s
	p.p = p
	p.ev = event{owner: &p.waiter, index: -1}
}

// carry is the carrier's body. The kernel loop hands it s.mu with every
// switch in, and it hands s.mu back with every switch out.
func (p *proc) carry(yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.s.mu.Unlock()
		p.fn()
		p.s.mu.Lock()
		p.fn = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// waiter is what one goroutine blocked in a simtime primitive waits on.
// Under Sim it is its proc's own (Sleep's wakeup or GetTimeout's deadline
// is ev), so blocking allocates nothing. Under the Real clock a Get makes
// a fresh one with a channel; the deadline's timer goroutine may still
// hold it after the wait is over, and nothing reuses it.
type waiter struct {
	ev    event
	on    waitList      // the queue listing it while it waits in Get, or nil
	got   bool          // Put promised it the item at the front of its queue's buffer
	woken bool          // resolved; a Real-clock deadline may still run afterwards
	ch    chan struct{} // Real clock: where it blocks
	p     *proc         // Sim: the proc it belongs to
	next  *waiter       // the next in its queue's waiter list
}

// waitList is a queue, as its waiters see it.
type waitList interface {
	expireLocked(w *waiter)
}

// fire is the waiter's event: a Sleep's wakeup, or a GetTimeout's deadline,
// which takes the waiter off its queue empty-handed.
func (w *waiter) fire() {
	if w.on != nil {
		w.on.expireLocked(w)
		return
	}
	w.p.s.wakeLocked(w.p)
}

// simTimer is an AfterFunc or Every timer: its event spawns fn.
type simTimer struct {
	s  *Sim
	fn func()
	ev event
}

func (t *simTimer) fire() { t.s.spawnLocked(t.fn) }

// event is a pending occurrence in the simulation. Events are embedded in
// the record that owns them (a waiter, a simTimer, a delivery) and pushed
// by pointer, and the owner is the interface through which they fire, so
// scheduling allocates nothing.
type event struct {
	when  time.Time
	owner firer
	index int // heap index; -1 while not pending
}

// firer is an event's owner.
type firer interface{ fire() }

// heapSlot is one pending event with its sort key beside it: at is the
// event's when as an offset from the Sim's start, and seq its scheduling
// order, so ordering reads the slice and no event.
type heapSlot struct {
	at, seq int64
	ev      *event
}

// maxAt is where an offset saturates, about 292 years past the start;
// events keyed there are ordered by their own times.
const maxAt = math.MaxInt64

// eventHeap is a binary min-heap of events ordered by (when, seq); seq
// breaks ties FIFO. It is typed rather than container/heap so that push
// and remove do not box through `any`, and it maintains event.index so any
// pending event can be removed in O(log n).
type eventHeap []heapSlot

func (h eventHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.at == maxAt && !a.ev.when.Equal(b.ev.when) {
		return a.ev.when.Before(b.ev.when)
	}
	return a.seq < b.seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].ev.index = i
	h[j].ev.index = j
}

func (h *eventHeap) push(slot heapSlot) {
	slot.ev.index = len(*h)
	*h = append(*h, slot)
	h.up(slot.ev.index)
}

// remove takes the event at index i out of the heap and returns it.
func (h *eventHeap) remove(i int) *event {
	old := *h
	n := len(old) - 1
	ev := old[i].ev
	if i != n {
		old.swap(i, n)
	}
	old[n] = heapSlot{}
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
