// Package simclockfix exercises the simclock and simrand fence rows:
// every real-clock and global-randomness call is flagged, while
// clock-method calls, seeded generators, and time.Time methods stay clean.
package simclockfix

import (
	"math/rand"
	"time"
)

type clock struct{}

func (clock) Now() time.Time { return time.Time{} }

func bad() {
	_ = time.Now()                  // want "time.Now called: bypasses the virtual clock"
	time.Sleep(time.Second)         // want "time.Sleep called: bypasses the virtual clock"
	<-time.After(time.Second)       // want "time.After called: bypasses the virtual clock"
	_ = time.NewTimer(time.Second)  // want "time.NewTimer called: bypasses the virtual clock"
	_ = time.NewTicker(time.Second) // want "time.NewTicker called: bypasses the virtual clock"
	_ = time.Since(time.Time{})     // want "time.Since called: bypasses the virtual clock"
	_ = time.Until(time.Time{})     // want "time.Until called: bypasses the virtual clock"
	_ = rand.Intn(10)               // want "rand.Intn called: uses the global random source"
	_ = rand.Float64()              // want "rand.Float64 called: uses the global random source"
}

func good(c clock) {
	_ = c.Now() // a method named Now on our own clock is fine
	rng := rand.New(rand.NewSource(7))
	_ = rng.Intn(10) // seeded generator methods are fine
	var t time.Time
	_ = t.After(time.Time{}) // time.Time.After is a method, not the package func
	_ = time.Second
	_ = time.Date(1995, 1, 1, 0, 0, 0, 0, time.UTC) // constructing times is fine
}

func suppressedUse() time.Time {
	//codalint:ignore simclock fixture demonstrating a justified, reasoned suppression
	return time.Now()
}
