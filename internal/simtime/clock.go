// Package simtime provides the timing kernel for the Coda reproduction.
//
// Every component in this repository (RPC2, SFTP, the network emulator, the
// Venus daemons, the file server) blocks only through the primitives in this
// package: Sleep, Go and Queue. This lets the identical protocol and daemon
// code run in two modes:
//
//   - Real: a thin veneer over package time; used by cmd/codasrv and
//     cmd/codaclient for live operation over UDP.
//   - Sim: a discrete-event virtual clock; used by tests, examples, and the
//     experiment harness so that a 45-minute trace replay or a 4-week
//     deployment simulation completes in milliseconds of wall time while
//     preserving all timing relationships (retransmission timers, aging
//     windows, think times, serialization delays).
//
// The Sim clock tracks a set of goroutines and runs one of them at a time,
// in the order they became runnable, switching between them as coroutines
// (iter.Pull) rather than through the Go scheduler. Time advances only when
// every tracked goroutine is parked in a simtime primitive, at which point
// the earliest pending event fires. Parking with no pending events is
// reported as a deadlock, which turns lost-wakeup bugs into immediate test
// failures instead of hangs. Because the others wait while one runs, a
// tracked goroutine that blocks outside the clock (a sync.Mutex held by a
// parked goroutine, a bare channel) stops the whole simulation. A consumer
// that never parks between items can be a Queue's Serve handler instead
// of a goroutine: the kernel runs it where that goroutine would have run,
// without switching to it.
//
// A Sim test cannot show a data race between procs. They run one at a
// time, and every switch hands over the clock's lock, so the race detector
// sees each proc's accesses ordered after the last one's. Race evidence
// for code the procs share comes from the Real clock, where those
// goroutines do run in parallel.
package simtime

import "time"

// Clock abstracts the passage of time. Implementations: Real and Sim.
//
// Code using a Clock must route every block through the clock: Sleep here,
// or a Queue constructed against the same clock. Blocking on a bare
// channel while running under a Sim clock stalls virtual time.
type Clock interface {
	// Now reports the current (real or virtual) time.
	Now() time.Time
	// Sleep pauses the calling goroutine for d. Non-positive d still
	// yields to other goroutines runnable at the current instant.
	Sleep(d time.Duration)
	// Go starts fn in a new goroutine tracked by the clock. Under Sim it
	// joins the back of the run queue, so inside a Run it starts once the
	// caller and every goroutine runnable before it have parked. Untracked
	// goroutines (plain go statements) are invisible to the kernel and
	// must not block on simtime primitives.
	Go(fn func())
}

// Every calls fn on c every d, the first time d from now, until fn
// reports false. Under Sim the ticks are one timer re-armed after each
// call, so an idle periodic daemon holds no goroutine; each call runs as
// a tracked goroutine of its own, at the instant and in the order the
// wakeup of a goroutine looping over Sleep(d) would have run. Under Real
// it is that goroutine.
func Every(c Clock, d time.Duration, fn func() bool) {
	s, ok := c.(*Sim)
	if !ok {
		c.Go(func() {
			for {
				c.Sleep(d)
				if !fn() {
					return
				}
			}
		})
		return
	}
	t := &simTimer{}
	t.fn = func() {
		if fn() {
			s.startTimer(t, d)
		}
	}
	s.startTimer(t, d)
}

// Real is the production clock: package time plus plain goroutines.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Go implements Clock.
func (Real) Go(fn func()) { go fn() }
