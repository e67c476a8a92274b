package rpc2

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// goid returns the calling goroutine's id, from its stack header.
func goid() string {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	return string(b[:bytes.IndexByte(b, ' ')])
}

// TestWorkerServesSequentialCalls: calls that never overlap are all
// served on one goroutine, the carrier the kernel keeps idle between them.
func TestWorkerServesSequentialCalls(t *testing.T) {
	w := newWorld(21, netsim.Ethernet.Params())
	w.sim.Run(func() {
		served := make(map[string]int)
		srv := w.node("server", func(src string, sc obs.SpanContext, body []byte) ([]byte, error) {
			served[goid()]++
			return echoHandler(src, sc, body)
		})
		c := w.node("client", nil)
		for i := range 20 {
			if _, err := c.Call("server", []byte{byte(i)}, CallOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		if len(served) != 1 {
			t.Errorf("20 sequential calls ran on %d goroutines, want 1: %v", len(served), served)
		}
		srv.Close()
		c.Close()
	})
}

// TestWorkersGrowToPeakAndAreReused: K handlers blocked at once run on K
// goroutines; once they and their callers have returned, the next K
// concurrent calls and their handlers run on the carriers they left.
func TestWorkersGrowToPeakAndAreReused(t *testing.T) {
	const k = 5
	w := newWorld(22, netsim.Ethernet.Params())
	w.sim.Run(func() {
		entered := simtime.NewQueue[string](w.sim)
		gate := simtime.NewQueue[struct{}](w.sim)
		srv := w.node("server", func(_ string, _ obs.SpanContext, body []byte) ([]byte, error) {
			entered.Put(goid())
			gate.Get()
			return bytes.Clone(body), nil
		})
		clients := make([]*Node, k)
		for i := range clients {
			clients[i] = w.node(string(rune('a'+i)), nil)
		}
		// round returns the goroutines its callers and handlers ran on.
		round := func() map[string]bool {
			done := simtime.NewQueue[string](w.sim)
			for _, c := range clients {
				w.sim.Go(func() {
					if _, err := c.Call("server", []byte("x"), CallOpts{}); err != nil {
						t.Error(err)
					}
					done.Put(goid())
				})
			}
			ids := make(map[string]bool)
			for range k {
				id, _ := entered.Get()
				ids[id] = true
			}
			if len(ids) != k {
				t.Errorf("%d blocked handlers ran on %d goroutines, want %d", k, len(ids), k)
			}
			for range k {
				gate.Put(struct{}{})
			}
			for range k {
				id, _ := done.Get()
				ids[id] = true
			}
			return ids
		}

		first := round()
		for id := range round() {
			if !first[id] {
				t.Errorf("the second round ran on goroutine %s, new; the first round's %d were idle", id, len(first))
			}
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
				if _, ok := slowDone.GetTimeout(0); ok {
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

// TestCloseEndsWorkers: once the handlers have returned and the nodes are
// closed, the node's goroutines end and the Run's idle carriers with it,
// so the process is back to its goroutine count.
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
