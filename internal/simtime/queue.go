package simtime

import (
	"sync"
	"time"
)

// Queue is an unbounded FIFO whose Get blocks through the owning clock.
// Put never blocks, which is what makes quiescence detection under Sim
// exact: only consumers park, and a parked consumer is genuinely waiting
// for either a producer (itself tracked) or a timer.
//
// A Queue constructed over a Sim participates in virtual time: a goroutine
// parked in Get counts as quiescent, and GetTimeout deadlines are virtual.
// Over a Real clock it behaves like an ordinary unbounded channel.
type Queue[T any] struct {
	clock Clock
	s     *Sim // non-nil when clock is a *Sim

	mu      sync.Mutex // guards the fields below in Real mode; s.mu in Sim mode
	items   []T        // buffered items are items[head:]
	head    int
	handed  int     // items[head:head+handed] are promised to woken waiters, oldest first
	waiters *waiter // oldest first, linked through waiter.next and ending at lastW;
	lastW   *waiter // never non-empty while an unpromised item is buffered
	closed  bool
	freeDel *delivery[T] // reusable PutAfter records
}

// delivery is one PutAfter in flight under Sim: the item and the event
// that puts it. It belongs to the event heap from PutAfter until its fire,
// which empties it and returns it to q.freeDel under s.mu, so a recycled
// record is never still scheduled.
type delivery[T any] struct {
	ev   event
	q    *Queue[T]
	item T
	next *delivery[T]
}

// NewQueue returns a Queue bound to c.
func NewQueue[T any](c Clock) *Queue[T] {
	q := &Queue[T]{clock: c}
	if s, ok := c.(*Sim); ok {
		q.s = s
	}
	return q
}

func (q *Queue[T]) lock() {
	if q.s != nil {
		q.s.mu.Lock()
	} else {
		q.mu.Lock()
	}
}

func (q *Queue[T]) unlock() {
	if q.s != nil {
		q.s.mu.Unlock()
	} else {
		q.mu.Unlock()
	}
}

// Put hands v to the longest-waiting consumer, or buffers it when nobody
// waits. Put on a closed queue is a no-op (the item is dropped), so racing
// producers need not coordinate with Close.
func (q *Queue[T]) Put(v T) {
	q.lock()
	q.putLocked(v)
	q.unlock()
}

// PutAfter is Put d from now on the owning clock: observably
// clock.AfterFunc(d, func() { q.Put(v) }), and over a Real clock exactly
// that. Under Sim the put is the event itself — it takes the (when, seq)
// slot the AfterFunc would have taken and runs inside the kernel when the
// world is quiescent, handing v to the oldest waiter (whose goroutine is
// then the only runnable one, as the callback's would have been) or
// buffering it — so an item in flight costs no goroutine, closure or
// Timer. It cannot be cancelled; a queue closed by the time it lands
// drops the item, as Put does.
func (q *Queue[T]) PutAfter(d time.Duration, v T) {
	if q.s == nil {
		q.clock.AfterFunc(d, func() { q.Put(v) })
		return
	}
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	if q.closed {
		return // dropped now rather than on landing
	}
	dl := q.freeDel
	if dl != nil {
		q.freeDel = dl.next
	} else {
		dl = &delivery[T]{q: q}
		dl.ev = event{owner: dl, index: -1}
	}
	dl.item = v
	q.s.scheduleLocked(&dl.ev, d)
}

// fire lands the delivery: it runs with s.mu held.
func (dl *delivery[T]) fire() {
	var zero T
	q, v := dl.q, dl.item
	dl.item = zero // release for GC
	dl.next = q.freeDel
	q.freeDel = dl
	q.putLocked(v)
}

// putLocked buffers v and, when a consumer waits, promises it to the
// oldest one: the waiter takes it from the front of the buffer when it
// runs, and no other Get can take it first.
func (q *Queue[T]) putLocked(v T) {
	if q.closed {
		return
	}
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Reclaim the consumed prefix before growing.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	if q.waiters != nil {
		q.handed++
		q.wakeLocked(q.waiters, true)
	}
}

// Serve hands every item put on q to h, oldest first, until q is closed:
// observably clock.Go of a loop over Get that calls h, and over a Real
// clock exactly that. Under Sim the queue gets a run-queue entry instead
// of a goroutine. It waits as a consumer parked in Get waits, and a put
// makes it runnable where it would make that consumer runnable. When its
// turn comes the kernel loop calls h on every buffered item, with the
// clock unlocked around each call, so an item costs no switch between
// goroutines. h must therefore not park: a Sleep, a Get that would block
// or a GetTimeout in h panics. It may put, start goroutines and send.
// Serve is called once, before anything else consumes q.
func (q *Queue[T]) Serve(h func(T)) {
	if q.s == nil {
		q.clock.Go(func() {
			for {
				v, ok := q.Get()
				if !ok {
					return
				}
				h(v)
			}
		})
		return
	}
	sv := &served[T]{q: q, h: h}
	sv.init(q.s)
	sv.drain = sv.run
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	if q.head < len(q.items) {
		q.s.readyLocked(&sv.proc) // the consumer would start and find them
	} else if !q.closed {
		sv.waitLocked()
	}
}

// served is a Queue's Serve entry under Sim: a proc with no carrier. It
// is allocated by Serve, so a Queue that is never served is no larger.
type served[T any] struct {
	proc
	q *Queue[T]
	h func(T)
}

// waitLocked lists the entry's waiter on its queue, as Get lists a
// consumer's before it parks.
func (sv *served[T]) waitLocked() {
	w := &sv.waiter
	w.on, w.got, w.woken = sv.q, false, false
	sv.q.listLocked(w)
	sv.q.s.parked++
}

// run is the entry's turn, called by the kernel loop with s.mu held: what a
// Get loop does between two parks. It takes the item a put promised it,
// then every item still buffered, and calls h on each with s.mu released;
// then, unless the queue is closed, it waits again.
func (sv *served[T]) run() {
	q, w := sv.q, &sv.waiter
	if w.got { // the promised item is the front one, and nobody else takes
		w.got = false
		q.handed--
	}
	for v, ok := q.popLocked(); ok; v, ok = q.popLocked() {
		q.s.mu.Unlock()
		sv.h(v)
		q.s.mu.Lock()
	}
	if !q.closed {
		sv.waitLocked()
	}
}

// Get removes and returns the oldest item, blocking until one is available.
// It returns ok=false once the queue is closed and drained.
func (q *Queue[T]) Get() (T, bool) {
	return q.get(false, 0)
}

// GetTimeout is Get with a deadline d on the owning clock. On timeout it
// returns ok=false with the zero value.
func (q *Queue[T]) GetTimeout(d time.Duration) (T, bool) {
	return q.get(true, d)
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	q.lock()
	defer q.unlock()
	return q.popLocked()
}

// Len reports the number of buffered items.
func (q *Queue[T]) Len() int {
	q.lock()
	defer q.unlock()
	return len(q.items) - q.head - q.handed
}

// Close wakes all waiters and makes future Gets fail once drained.
func (q *Queue[T]) Close() {
	q.lock()
	defer q.unlock()
	if q.closed {
		return
	}
	q.closed = true
	for q.waiters != nil {
		q.wakeLocked(q.waiters, false)
	}
}

// popLocked removes the oldest item nobody was promised.
func (q *Queue[T]) popLocked() (T, bool) {
	if q.head+q.handed == len(q.items) {
		var zero T
		return zero, false
	}
	return q.removeLocked(q.head + q.handed), true
}

// removeLocked takes items[i] out of the buffer, head <= i <= head+handed;
// the promised items before it move up one, in order.
func (q *Queue[T]) removeLocked(i int) T {
	var zero T
	v := q.items[i]
	copy(q.items[q.head+1:i+1], q.items[q.head:i])
	q.items[q.head] = zero // release for GC
	q.head++
	if q.head == len(q.items) {
		// Drained: rewind, so a queue that empties keeps one backing
		// array instead of creeping through fresh ones.
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// listLocked appends w to the waiters.
func (q *Queue[T]) listLocked(w *waiter) {
	w.next = nil
	if q.lastW == nil {
		q.waiters = w
	} else {
		q.lastW.next = w
	}
	q.lastW = w
}

// wakeLocked resolves w, which must be listed: it leaves the waiters, its
// deadline is disarmed, and its goroutine becomes runnable. got says Put
// promised it an item.
func (q *Queue[T]) wakeLocked(w *waiter, got bool) {
	var prev *waiter
	for x := q.waiters; x != w; x = x.next {
		prev = x
	}
	if prev == nil {
		q.waiters = w.next
	} else {
		prev.next = w.next
	}
	if q.lastW == w {
		q.lastW = prev
	}
	w.next, w.on, w.got, w.woken = nil, nil, got, true
	if q.s != nil {
		q.s.cancelLocked(&w.ev)
		q.s.wakeLocked(w.p)
	} else {
		w.ch <- struct{}{}
	}
}

// expireLocked is w's deadline, run with the queue lock held: the Sim
// event's fire, or the body of the Real clock's AfterFunc callback — which,
// unlike a Sim event, cannot be disarmed once started and so may find w
// resolved.
func (q *Queue[T]) expireLocked(w *waiter) {
	if !w.woken {
		q.wakeLocked(w, false)
	}
}

func (q *Queue[T]) get(timed bool, d time.Duration) (T, bool) {
	var zero T
	q.lock()
	if v, ok := q.popLocked(); ok {
		q.unlock()
		return v, true
	}
	if q.closed || (timed && d <= 0) {
		q.unlock()
		return zero, false
	}
	if q.s == nil {
		return q.getReal(timed, d)
	}
	if timed && q.s.advanceInlineLocked(d) {
		// Nobody else can run, and nothing fires, before the deadline:
		// the queue is still empty then.
		q.unlock()
		return zero, false
	}
	p := q.s.curLocked()
	w := &p.waiter
	w.on, w.got, w.woken = q, false, false
	q.listLocked(w)
	if timed {
		q.s.scheduleLocked(&w.ev, d)
	}
	q.s.parkLocked(p)
	return q.takeLocked(w)
}

// getReal is get's wait under the Real clock, entered with q.mu held.
func (q *Queue[T]) getReal(timed bool, d time.Duration) (T, bool) {
	w := &waiter{ch: make(chan struct{}, 1)}
	q.listLocked(w)
	var deadline *Timer
	if timed {
		deadline = q.clock.AfterFunc(d, func() {
			q.mu.Lock()
			defer q.mu.Unlock()
			q.expireLocked(w)
		})
	}
	q.mu.Unlock()
	<-w.ch
	if deadline != nil {
		deadline.Stop()
	}
	q.mu.Lock()
	return q.takeLocked(w)
}

// takeLocked ends a wait, with the queue lock held, and releases it: a
// waiter that was promised an item takes the oldest promised one.
func (q *Queue[T]) takeLocked(w *waiter) (v T, ok bool) {
	if w.got {
		q.handed--
		v, ok = q.removeLocked(q.head), true
	}
	q.unlock()
	return v, ok
}
