//go:build race

package simtime

import "runtime"

func init() { newCarrier = newRaceCarrier }

// newRaceCarrier gives p its carrier in a race build. Under the race
// detector a coroutine that ends never hands back the detector's
// per-goroutine state (the runtime's coroexit skips racegoend), about
// 100 KB a carrier, so a race test process that builds thousands of Sims
// grows by gigabytes. Race builds therefore run p.carry on a plain
// goroutine and pass the turn over channels: the same one-at-a-time
// order, with a panic or a Goexit handed to the driver as iter.Pull
// hands it.
func newRaceCarrier(p *proc) {
	in, out := make(chan bool), make(chan any)
	p.resume = func() (struct{}, bool) {
		in <- true
		switch v := <-out; v {
		case nil:
			return struct{}{}, true
		case goexited{}:
			runtime.Goexit()
		default:
			panic(v)
		}
		return struct{}{}, false
	}
	p.stop = func() {
		in <- false
		<-out
	}
	go func() {
		returned := false
		defer func() {
			var v any
			if !returned {
				if v = recover(); v == nil {
					v = goexited{}
				}
			}
			out <- v
		}()
		if <-in {
			p.carry(func(struct{}) bool {
				out <- nil
				return <-in
			})
		}
		returned = true
	}()
}

// goexited reports a carrier's runtime.Goexit to its driver.
type goexited struct{}
