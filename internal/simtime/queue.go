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
	waiters []*qwaiter[T] // oldest first; never non-empty while items is
	closed  bool
	free    *qwaiter[T]  // reusable waiter records; see waiter for the ownership rule
	freeDel *delivery[T] // reusable PutAfter records, same rule
}

// qwaiter is one goroutine parked in Get/GetTimeout, and the slot Put
// hands its item into. Put, Close and the deadline each take the waiter off
// q.waiters as they resolve it, under the queue lock, so it is resolved once.
type qwaiter[T any] struct {
	waiter
	q     *Queue[T]
	item  T
	got   bool // item was handed over by Put
	woken bool // resolved; a Real-clock deadline may still run afterwards
	next  *qwaiter[T]
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
		dl.ev.index = -1
		dl.ev.fire = dl.land
	}
	dl.item = v
	q.s.scheduleLocked(&dl.ev, d)
}

// land is a delivery's fire: it runs with s.mu held.
func (dl *delivery[T]) land() {
	var zero T
	q, v := dl.q, dl.item
	dl.item = zero // release for GC
	dl.next = q.freeDel
	q.freeDel = dl
	q.putLocked(v)
}

func (q *Queue[T]) putLocked(v T) {
	if q.closed {
		return
	}
	if len(q.waiters) == 0 {
		if q.head > 0 && len(q.items) == cap(q.items) {
			// Reclaim the consumed prefix before growing.
			n := copy(q.items, q.items[q.head:])
			clear(q.items[n:])
			q.items, q.head = q.items[:n], 0
		}
		q.items = append(q.items, v)
		return
	}
	w := q.waiters[0]
	w.item, w.got = v, true
	q.wakeLocked(w)
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
	return len(q.items) - q.head
}

// Close wakes all waiters and makes future Gets fail once drained.
func (q *Queue[T]) Close() {
	q.lock()
	defer q.unlock()
	if q.closed {
		return
	}
	q.closed = true
	for len(q.waiters) > 0 {
		q.wakeLocked(q.waiters[0])
	}
}

func (q *Queue[T]) popLocked() (T, bool) {
	var zero T
	if q.head == len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero // release for GC
	q.head++
	if q.head == len(q.items) {
		// Drained: rewind, so a queue that empties keeps one backing
		// array instead of creeping through fresh ones.
		q.items, q.head = q.items[:0], 0
	}
	return v, true
}

// wakeLocked resolves w, which must be listed: it leaves q.waiters, its
// deadline is disarmed, and its goroutine becomes runnable.
func (q *Queue[T]) wakeLocked(w *qwaiter[T]) {
	for i := range q.waiters {
		if q.waiters[i] == w {
			copy(q.waiters[i:], q.waiters[i+1:])
			q.waiters[len(q.waiters)-1] = nil
			q.waiters = q.waiters[:len(q.waiters)-1]
			break
		}
	}
	w.woken = true
	if q.s != nil {
		q.s.cancelLocked(&w.ev)
		q.s.unparkLocked()
	}
	w.ch <- struct{}{}
}

// expire is w's deadline, run with the queue lock held: the Sim event's
// fire, or the body of the Real clock's AfterFunc callback — which, unlike
// a Sim event, cannot be disarmed once started and so may find w resolved.
func (w *qwaiter[T]) expire() {
	if !w.woken {
		w.q.wakeLocked(w)
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
	if timed && q.s != nil && q.s.advanceInlineLocked(d) {
		// Nobody else can run, and nothing fires, before the deadline:
		// the queue is still empty then.
		q.unlock()
		return zero, false
	}

	w := q.free
	if w != nil {
		q.free = w.next
		w.got, w.woken = false, false
	} else {
		w = &qwaiter[T]{q: q}
		w.ch = make(chan struct{}, 1)
		w.ev.index = -1
		w.ev.fire = w.expire
	}
	q.waiters = append(q.waiters, w)

	// stop is set only for a Real-clock deadline, which runs in a timer
	// goroutine that may still hold w after Stop reports false.
	var stop func() bool
	if timed {
		if q.s != nil {
			q.s.scheduleLocked(&w.ev, d)
		} else {
			stop = q.clock.AfterFunc(d, func() {
				q.mu.Lock()
				defer q.mu.Unlock()
				w.expire()
			}).Stop
		}
	}
	if q.s != nil {
		// Sim: park while still holding s.mu, then release and block.
		// The park may advance time and even fire our own wakeup before
		// we reach the receive; the token waits in the channel.
		q.s.parkLocked()
	}
	q.unlock()

	<-w.ch

	q.lock()
	v, ok := w.item, w.got
	if stop == nil || stop() {
		w.item = zero // release for GC
		w.next = q.free
		q.free = w
	}
	q.unlock()
	return v, ok
}
