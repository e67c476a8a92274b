package rpc2

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// poisoned reports whether all of b, to its capacity, reads as the byte
// a test binary's bufpool.Free fills a frame with.
func poisoned(b []byte) bool {
	for _, c := range b[:cap(b)] {
		if c != bufpool.Poison {
			return false
		}
	}
	return true
}

// filledFrame is a bufpool frame of n bytes, none of them Poison.
func filledFrame(n int) []byte {
	f := bufpool.Frame(n)
	for i := range f[:cap(f)] {
		f[:cap(f)][i] = 'r'
	}
	return f
}

// TestNodeReleasesFrames: the Node frees each frame it owns at its last
// reader — a request body reassembled by SFTP once the handler returns, a
// reply side effect once the caller has acknowledged its transfer, an
// inline reply once the reply cache evicts it, and not before. The
// handlers here keep what they were given or returned only to watch it
// be freed, which the Handler contract otherwise forbids.
func TestNodeReleasesFrames(t *testing.T) {
	t.Run("request side effect", func(t *testing.T) {
		w := newWorld(41, netsim.Ethernet.Params())
		w.sim.Run(func() {
			var kept []byte
			w.node("server", func(_ string, _ obs.SpanContext, body []byte) ([]byte, error) {
				if poisoned(body) {
					t.Error("the handler was given a freed body")
				}
				kept = body
				return nil, nil
			})
			c := w.node("client", nil)
			if _, err := c.Call("server", bytes.Repeat([]byte("q"), 4096), CallOpts{}); err != nil {
				t.Fatal(err)
			}
			if kept == nil || !poisoned(kept) {
				t.Error("the request body was not freed after the handler returned")
			}
		})
	})

	t.Run("reply side effect", func(t *testing.T) {
		w := newWorld(42, netsim.Ethernet.Params())
		w.sim.Run(func() {
			var reply []byte
			w.node("server", func(string, obs.SpanContext, []byte) ([]byte, error) {
				reply = filledFrame(4096)
				return reply, nil
			})
			c := w.node("client", nil)
			rep, err := c.Call("server", []byte("fetch"), CallOpts{})
			if err != nil || !bytes.Equal(rep, bytes.Repeat([]byte("r"), 4096)) {
				t.Fatalf("Call = %d bytes, %v", len(rep), err)
			}
			w.sim.Sleep(time.Second) // the caller's last ack reaches the server
			if !poisoned(reply) {
				t.Error("the reply body was not freed once its transfer was acknowledged")
			}
		})
	})

	t.Run("inline reply evicted", func(t *testing.T) {
		w := newWorld(43, netsim.Ethernet.Params())
		w.sim.Run(func() {
			var replies [][]byte
			w.node("server", func(string, obs.SpanContext, []byte) ([]byte, error) {
				replies = append(replies, filledFrame(100))
				return replies[len(replies)-1], nil
			})
			c := w.node("client", nil)
			for i := 1; i <= 257; i++ {
				if _, err := c.Call("server", []byte{byte(i)}, CallOpts{}); err != nil {
					t.Fatal(err)
				}
				if i == 256 && poisoned(replies[0]) {
					t.Fatal("an inline reply was freed while the reply cache still held it")
				}
			}
			if !poisoned(replies[0]) {
				t.Error("the oldest inline reply was not freed when the cache evicted it")
			}
			if poisoned(replies[1]) {
				t.Error("a reply still cached was freed")
			}
		})
	})
}
