package rpc2

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sftp"
	"repro/internal/simtime"
)

// dropConn is an endpoint whose outgoing packets are offered to drop
// first: one it selects never reaches the link.
type dropConn struct {
	netsim.PacketConn
	drop func(p []byte) bool
}

func (c dropConn) Send(dst string, p []byte) error {
	if c.drop(p) {
		return nil
	}
	return c.PacketConn.Send(dst, p)
}

func isKind(p []byte, kind byte) bool { return p[0]&sftpTag == 0 && p[0]&kindMask == kind }

// sideEffectWorld is a client and a server joined by link whose outgoing
// packets pass clientDrop and serverDrop; the server counts executions
// and answers a copy of reply (the Node frees what a handler returns).
func sideEffectWorld(seed int64, link netsim.LinkParams, reply []byte, clientDrop, serverDrop func(p []byte) bool) (w *world, c, srv *Node, execs *int) {
	w = newWorld(seed, link)
	execs = new(int)
	srv = NewNode(w.sim, dropConn{w.net.Host("server"), serverDrop}, netmon.NewMonitor(w.sim),
		func(string, obs.SpanContext, []byte) ([]byte, error) { *execs++; return bytes.Clone(reply), nil }, nil)
	c = NewNode(w.sim, dropConn{w.net.Host("client"), clientDrop}, netmon.NewMonitor(w.sim), nil, nil)
	return w, c, srv, execs
}

var okReply = []byte("ok")

func never([]byte) bool { return false }

// nthSFTP drops the n-th SFTP packet, and nothing else.
func nthSFTP(n int) func([]byte) bool {
	seen := 0
	return func(p []byte) bool {
		if p[0]&sftpTag == 0 {
			return false
		}
		seen++
		return seen == n
	}
}

// firstOf drops the first packet of kind, and nothing else.
func firstOf(kind byte) func([]byte) bool {
	dropped := false
	return func(p []byte) bool {
		if !dropped && isKind(p, kind) {
			dropped = true
			return true
		}
		return false
	}
}

// TestSideEffectExecutesOnce: the header of a call with a side effect
// leaves ahead of its body, and the call executes at most once whether the
// header arrives first as it should, is lost (the body then waits, whole
// and unclaimed, for the retransmitted header), has its reply lost, or is
// followed by a transfer that fails.
func TestSideEffectExecutesOnce(t *testing.T) {
	body := bytes.Repeat([]byte("side effect "), 2000) // 24 KB, 20 fragments
	for _, tc := range []struct {
		name                   string
		clientDrop, serverDrop func([]byte) bool
	}{
		{"header first", never, never},
		{"lost header", firstOf(kindReq), never},
		{"lost reply", never, firstOf(kindRep)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sent []bool // per client packet: was it the request header
			w, c, _, execs := sideEffectWorld(31, netsim.ISDN.Params(), okReply, func(p []byte) bool {
				sent = append(sent, isKind(p, kindReq))
				return tc.clientDrop(p)
			}, tc.serverDrop)
			w.sim.Run(func() {
				rep, err := c.Call("server", body, CallOpts{Timeout: 10 * time.Minute})
				if err != nil || string(rep) != "ok" {
					t.Fatalf("Call = %q, %v", rep, err)
				}
			})
			if *execs != 1 {
				t.Errorf("executed %d times, want 1", *execs)
			}
			if len(sent) == 0 || !sent[0] {
				t.Error("the body left before its header")
			}
		})
	}

	t.Run("failed transfer", func(t *testing.T) {
		cut := true
		w, c, srv, execs := sideEffectWorld(32, netsim.ISDN.Params(), okReply, func(p []byte) bool {
			return cut && p[0]&sftpTag != 0
		}, never)
		w.sim.Run(func() {
			if _, err := c.Call("server", body, CallOpts{Timeout: 10 * time.Minute}); !errors.Is(err, sftp.ErrTransferFailed) {
				t.Fatalf("Call whose body never arrives: %v, want ErrTransferFailed", err)
			}
			w.sim.Sleep(2 * sftpAwaitSlack) // the server stops waiting for the announced body
			srv.mu.Lock()
			waiting := len(srv.replyCache["client"].inProgress)
			srv.mu.Unlock()
			if waiting != 0 {
				t.Errorf("%d calls still in progress at the server", waiting)
			}
			cut = false
			if _, err := c.Call("server", body, CallOpts{Timeout: 10 * time.Minute}); err != nil {
				t.Fatalf("next call: %v", err)
			}
		})
		if *execs != 1 {
			t.Errorf("executed %d times, want 1 (the failed call never)", *execs)
		}
	})
}

// TestSideEffectBodyOutlastsAwaitSlack: a chunk sized on a fast link is
// shipped as the link drops to a modem. Its body arrives behind its header
// and takes longer than sftpAwaitSlack to do so, but is never silent that
// long: the server waits it out and executes the call.
func TestSideEffectBodyOutlastsAwaitSlack(t *testing.T) {
	w, c, _, execs := sideEffectWorld(33, netsim.WaveLan.Params(), okReply, never, never)
	w.sim.Run(func() {
		w.sim.AfterFunc(100*time.Millisecond, func() { w.net.SetLink("client", "server", netsim.Modem.Params()) })
		start := w.sim.Now()
		if _, err := c.Call("server", make([]byte, 512<<10), CallOpts{Timeout: time.Hour}); err != nil {
			t.Fatal(err)
		}
		if took := w.sim.Now().Sub(start); took <= sftpAwaitSlack {
			t.Errorf("call took %v, not longer than sftpAwaitSlack %v: the test proves nothing", took, sftpAwaitSlack)
		}
	})
	if *execs != 1 {
		t.Errorf("executed %d times, want 1", *execs)
	}
}

// TestSideEffectCallKeepsRTO: the reply to a side-effect call echoes a
// header that left before the body, so its round trip is no RTT sample.
// After a 30 s call the RTO is no larger than it was before it.
func TestSideEffectCallKeepsRTO(t *testing.T) {
	w, c, _, _ := sideEffectWorld(34, netsim.Modem.Params(), okReply, never, never)
	w.sim.Run(func() {
		for i := 0; i < 5; i++ {
			if _, err := c.Call("server", []byte("warm"), CallOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		peer := c.Monitor().Peer("server")
		before, start := peer.RTO(), w.sim.Now()
		if _, err := c.Call("server", make([]byte, 36<<10), CallOpts{Timeout: time.Hour}); err != nil {
			t.Fatal(err)
		}
		if took := w.sim.Now().Sub(start); took < 30*time.Second {
			t.Fatalf("side-effect call took %v, want at least 30 s", took)
		}
		if after := peer.RTO(); after > before {
			t.Errorf("RTO %v after the side-effect call, %v before it", after, before)
		}
	})
}

// TestSideEffectReplyExecutesOnce: a reply too large to ride inline is
// cached before its header leaves, and its body follows the header. The
// handler runs once whether the reply header is lost (the caller's
// retransmitted request fetches it from the cache), a fragment of the body
// is lost (SFTP repairs it), or the whole body transfer fails and a
// retransmitted request ships it again. On a lossless link the caller,
// awaiting the body from the moment the header arrives, sends its request
// once.
func TestSideEffectReplyExecutesOnce(t *testing.T) {
	reply := bytes.Repeat([]byte("large reply "), 2000) // 24 KB, 20 fragments
	for _, tc := range []struct {
		name       string
		serverDrop func([]byte) bool
		outage     time.Duration // nothing the server sends gets through until then
		requests   int           // request headers the caller sends; 0: not checked
	}{
		{"lossless", never, 0, 1},
		{"lost header", firstOf(kindRep), 0, 0},
		{"lost fragment", nthSFTP(10), 0, 1},
		// The reply header is lost and the body transfer gives up; a
		// request retransmitted after the outage ships the body again.
		{"failed transfer", never, 15 * time.Minute, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requests := 0
			var w *world
			w, c, _, execs := sideEffectWorld(35, netsim.ISDN.Params(), reply, func(p []byte) bool {
				if isKind(p, kindReq) {
					requests++
				}
				return false
			}, func(p []byte) bool {
				return w.sim.Now().Before(simtime.Epoch1995.Add(tc.outage)) || tc.serverDrop(p)
			})
			w.sim.Run(func() {
				rep, err := c.Call("server", []byte("fetch"), CallOpts{Timeout: time.Hour, MaxRetries: 30})
				if err != nil || !bytes.Equal(rep, reply) {
					t.Fatalf("Call = %d bytes, %v", len(rep), err)
				}
			})
			if *execs != 1 {
				t.Errorf("executed %d times, want 1", *execs)
			}
			if tc.requests != 0 && requests != tc.requests {
				t.Errorf("caller sent %d request headers, want %d", requests, tc.requests)
			}
		})
	}
}

// TestSideEffectReplyDeadServer: the server dies as its reply header
// leaves. The caller, awaiting the body the header announced, fails with
// ErrTimeout when the call's Timeout runs out, not after sftpAwaitSlack.
func TestSideEffectReplyDeadServer(t *testing.T) {
	dead := false
	w, c, _, execs := sideEffectWorld(36, netsim.ISDN.Params(), make([]byte, 24<<10), never, func(p []byte) bool {
		was := dead
		dead = dead || isKind(p, kindRep)
		return was
	})
	w.sim.Run(func() {
		const timeout = time.Minute
		start := w.sim.Now()
		_, err := c.Call("server", []byte("fetch"), CallOpts{Timeout: timeout})
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("Call to a server that died after its reply header: %v, want ErrTimeout", err)
		}
		if took := w.sim.Now().Sub(start); took > timeout {
			t.Errorf("call failed after %v, beyond its %v Timeout", took, timeout)
		}
	})
	if !dead || *execs != 1 {
		t.Errorf("reply header sent %v, executed %d times; want true, 1", dead, *execs)
	}
}
