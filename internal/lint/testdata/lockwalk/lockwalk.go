// Package lockwalkfix holds one function per control-flow shape the
// two pre-merge statement walkers disagreed on. Both lock analyzers
// run over it together, off one critical-section walk, so each shape
// has exactly one answer to "what is held here"; a want names the
// analyzer that must report it.
package lockwalkfix

import "sync"

type box struct {
	mu   sync.Mutex
	n    int
	ch   chan int
	wake chan struct{}
}

// post is the signaller: it takes box.mu on its way to a send, so a
// receive parked under box.mu can starve it; lockhold reports every
// such receive below that is must-held.
func (b *box) post(v int) {
	b.mu.Lock()
	b.n = v
	b.mu.Unlock()
	b.ch <- v
}

// Clean: every arm released, so nothing is held at the receive. (The
// old lockhold walker gave each arm a copy and forgot what it did.)
func (b *box) everyArmReleasesIf(c bool) int {
	b.mu.Lock()
	if c {
		b.n++
		b.mu.Unlock()
	} else {
		b.mu.Unlock()
	}
	return <-b.ch
}

// Clean: the same through a switch with a default.
func (b *box) everyArmReleasesSwitch(k int) int {
	b.mu.Lock()
	switch k {
	case 0:
		b.n = 0
		b.mu.Unlock()
	case 1:
		b.mu.Unlock()
	default:
		b.mu.Unlock()
	}
	return <-b.ch
}

// Clean: the arm that unlocked also returned, so the fall-through still
// must-holds mu and the second Lock self-deadlocks; a Lock is not a
// park, and no analyzer in the suite reports it.
func (b *box) terminatingArm(c bool) {
	b.mu.Lock()
	if c {
		b.mu.Unlock()
		return
	}
	b.mu.Lock()
	b.mu.Unlock()
}

// Unreported — the may-hold limit: mu is taken on only some paths, so
// it is a may-hold at the receive, and may-holds never report, even
// though the same condition guards both.
func (b *box) conditionalAcquire(c bool) int {
	if c {
		b.mu.Lock()
	}
	v := <-b.ch
	if c {
		b.mu.Unlock()
	}
	return v
}

// lock is a lockVolume-style helper: its Lock balance is positive, so
// calling it opens a critical section at the call site.
func (b *box) lock() { b.mu.Lock() }

// pause blocks on a channel nobody in this package signals under mu.
func (b *box) pause() { <-b.wake }

// Bad: the region was opened by the helper, and the park is one call
// away; lockhold sees both through the engine's balance and Blocks
// summaries.
func (b *box) helperHeldPark() {
	b.lock()
	b.pause() // want "[lockhold] lockwalkfix.box.mu (acquired line 93) held across blocking call b.pause"
	b.mu.Unlock()
}

// Bad: a send parks like a receive does, whoever is meant to take
// the value.
func (b *box) sendUnderLock(v int) {
	b.mu.Lock()
	b.ch <- v // want "[lockhold] b.mu (acquired line 101) held across channel send"
	b.mu.Unlock()
}

// Bad: the receive parks under mu, and post needs mu before it can
// ever send.
func (b *box) recvUnderLock() {
	b.mu.Lock()
	b.n = <-b.ch // want "[lockhold] b.mu (acquired line 109) held across channel receive"
	b.mu.Unlock()
}

// Bad: a break carries its holds to the code after the loop.
func (b *box) breakCarriesHold() {
	for {
		b.mu.Lock()
		if b.n > 0 {
			break
		}
		b.mu.Unlock()
	}
	b.pause() // want "[lockhold] b.mu (acquired line 117) held across blocking call b.pause"
	b.mu.Unlock()
}

// Clean for lockguard: Set takes mu through the sibling helper.
func (b *box) Set(v int) {
	b.lock()
	b.n = v
	b.mu.Unlock()
}

func (b *box) Peek() int { // want "[lockguard] box.Peek accesses guarded field(s) n without holding mu"
	return b.n
}

// lockAll takes every box's mu in a loop and releases them all in a
// deferred closure: its balance is zero, so it opens no region at its
// call site.
func lockAll(bs []*box) {
	for _, b := range bs {
		b.mu.Lock()
	}
	defer func() {
		for _, b := range bs {
			b.mu.Unlock()
		}
	}()
}

// Clean: lockAll has returned, and with it every mu, before the send.
func (b *box) sendAfterLockAll(bs []*box) {
	lockAll(bs)
	b.ch <- 0
}
