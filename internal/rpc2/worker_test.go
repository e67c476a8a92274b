package rpc2

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// workers counts the goroutines running n's handler worker loop, by the
// receiver in their stacks. A goroutine still running on another thread
// shows no stack, and one that has just parked in the Sim may be that
// until it blocks, so it waits (in real time) for the caller to be the
// only one running.
func workers(n *Node) int {
	frame := fmt.Sprintf("repro/internal/rpc2.(*Node).work(%p,", n)
	buf := make([]byte, 1<<20)
	for wait := time.Now(); ; runtime.Gosched() {
		dump := string(buf[:runtime.Stack(buf, true)])
		if strings.Count(dump, "[running]") == 1 || time.Since(wait) > 2*time.Second {
			return strings.Count(dump, frame)
		}
	}
}

// idleQueues returns the queues of n's idle workers.
func idleQueues(n *Node) []*simtime.Queue[func()] {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*simtime.Queue[func()](nil), n.idle...)
}

// TestWorkerServesSequentialCalls: calls that never overlap are all
// served by one handler goroutine, idle between them.
func TestWorkerServesSequentialCalls(t *testing.T) {
	w := newWorld(21, netsim.Ethernet.Params())
	w.sim.Run(func() {
		srv := w.node("server", echoHandler)
		c := w.node("client", nil)
		for i := range 20 {
			if _, err := c.Call("server", []byte{byte(i)}, CallOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		if got := workers(srv); got != 1 {
			t.Errorf("20 sequential calls ran on %d handler workers, want 1", got)
		}
		if got := len(idleQueues(srv)); got != 1 {
			t.Errorf("%d idle workers, want 1", got)
		}
		srv.Close()
		c.Close()
	})
}

// TestWorkersGrowToPeakAndAreReused: K handlers blocked at once hold K
// workers; once they return, the next K concurrent calls run on the same
// K workers and start none.
func TestWorkersGrowToPeakAndAreReused(t *testing.T) {
	const k = 5
	w := newWorld(22, netsim.Ethernet.Params())
	w.sim.Run(func() {
		entered := simtime.NewQueue[struct{}](w.sim)
		gate := simtime.NewQueue[struct{}](w.sim)
		srv := w.node("server", func(_ string, _ obs.SpanContext, body []byte) ([]byte, error) {
			entered.Put(struct{}{})
			gate.Get()
			return bytes.Clone(body), nil
		})
		clients := make([]*Node, k)
		for i := range clients {
			clients[i] = w.node(string(rune('a'+i)), nil)
		}
		round := func() {
			done := simtime.NewQueue[error](w.sim)
			for _, c := range clients {
				w.sim.Go(func() {
					_, err := c.Call("server", []byte("x"), CallOpts{})
					done.Put(err)
				})
			}
			for range k {
				entered.Get()
			}
			if got := workers(srv); got != k {
				t.Errorf("%d handlers blocked on %d workers, want %d", k, got, k)
			}
			for range k {
				gate.Put(struct{}{})
			}
			for range k {
				if err, _ := done.Get(); err != nil {
					t.Error(err)
				}
			}
		}

		round()
		first := idleQueues(srv)
		if len(first) != k {
			t.Fatalf("%d idle workers after the first round, want %d", len(first), k)
		}
		round()
		second := idleQueues(srv)
		if len(second) != k {
			t.Fatalf("%d idle workers after the second round, want %d", len(second), k)
		}
		for _, q := range second {
			found := false
			for _, p := range first {
				found = found || p == q
			}
			if !found {
				t.Error("the second round started a worker; every one of the first round was idle")
			}
		}
		if got := workers(srv); got != k {
			t.Errorf("%d workers after two rounds, want %d", got, k)
		}
		srv.Close()
		for _, c := range clients {
			c.Close()
		}
	})
}

// TestBlockedWorkerDelaysNoOtherPeer: a worker waiting on a slow peer's
// request body (Await) or shipping it a large reply (shipReply) holds only
// itself; a call from a peer on a fast link is served meanwhile.
func TestBlockedWorkerDelaysNoOtherPeer(t *testing.T) {
	large := bytes.Repeat([]byte("side effect "), 2000) // 24 KB: ~25 s at 9.6 kb/s
	for _, tc := range []struct {
		name      string
		req, want []byte // the slow peer's request and the reply it gets
	}{
		{"await", large, []byte("ok")},
		{"shipReply", []byte("big"), large},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(23, netsim.Ethernet.Params())
			w.net.SetLink("slow", "server", netsim.Modem.Params())
			w.sim.Run(func() {
				srv := w.node("server", func(_ string, _ obs.SpanContext, body []byte) ([]byte, error) {
					if string(body) == "big" {
						return bytes.Clone(large), nil
					}
					if len(body) > InlineLimit {
						return []byte("ok"), nil
					}
					return bytes.Clone(body), nil
				})
				slow, fast := w.node("slow", nil), w.node("fast", nil)
				slowDone := simtime.NewQueue[time.Time](w.sim)
				w.sim.Go(func() {
					rep, err := slow.Call("server", tc.req, CallOpts{Timeout: 10 * time.Minute})
					if err != nil || !bytes.Equal(rep, tc.want) {
						t.Errorf("slow call: %d bytes, %v", len(rep), err)
					}
					slowDone.Put(w.sim.Now())
				})
				w.sim.Sleep(2 * time.Second) // the slow call's transfer is under way
				start := w.sim.Now()
				if _, err := fast.Call("server", []byte("quick"), CallOpts{}); err != nil {
					t.Fatal(err)
				}
				if took := w.sim.Now().Sub(start); took > 100*time.Millisecond {
					t.Errorf("fast call took %v behind the slow peer's transfer", took)
				}
				if _, ok := slowDone.TryGet(); ok {
					t.Fatal("the slow call finished before the fast one started; nothing was blocked")
				}
				slowDone.Get()
				for _, n := range []*Node{srv, slow, fast} {
					n.Close()
				}
			})
		})
	}
}

// TestCloseEndsWorkers: Close ends every idle worker, and the node's other
// goroutines end with it, so the process is back to its goroutine count.
func TestCloseEndsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	w := newWorld(24, netsim.Ethernet.Params())
	w.sim.Run(func() {
		srv := w.node("server", func(_ string, _ obs.SpanContext, body []byte) ([]byte, error) {
			w.sim.Sleep(time.Second)
			return bytes.Clone(body), nil
		})
		clients := make([]*Node, 3)
		done := simtime.NewQueue[struct{}](w.sim)
		for i := range clients {
			clients[i] = w.node(string(rune('a'+i)), nil)
			w.sim.Go(func() {
				if _, err := clients[i].Call("server", []byte("x"), CallOpts{}); err != nil {
					t.Error(err)
				}
				done.Put(struct{}{})
			})
		}
		for range clients {
			done.Get()
		}
		if got := len(idleQueues(srv)); got != len(clients) {
			t.Errorf("%d idle workers, want %d", got, len(clients))
		}
		srv.Close()
		for _, c := range clients {
			c.Close()
		}
		w.sim.Sleep(2 * replySweepInterval) // the sweepers see the close
	})
	for wait := time.Now(); runtime.NumGoroutine() > before && time.Since(wait) < 2*time.Second; {
		runtime.Gosched()
	}
	if leaked := runtime.NumGoroutine() - before; leaked > 0 {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutine(s) left after Close:\n%s", leaked, buf[:runtime.Stack(buf, true)])
	}
}
