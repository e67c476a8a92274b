package rpc2

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

type world struct {
	sim *simtime.Sim
	net *netsim.Network
}

func newWorld(seed int64, p netsim.LinkParams) *world {
	s := simtime.NewSim(simtime.Epoch1995)
	n := netsim.New(s, seed)
	n.SetDefaults(p)
	return &world{sim: s, net: n}
}

func (w *world) node(name string, h Handler) *Node {
	return NewNode(w.sim, w.net.Host(name), netmon.NewMonitor(w.sim), h, nil)
}

// echoHandler answers with a copy of the request: body is valid only
// until the handler returns, and the reply is the Node's to free.
func echoHandler(src string, _ obs.SpanContext, body []byte) ([]byte, error) {
	return bytes.Clone(body), nil
}

func TestCallRoundTrip(t *testing.T) {
	w := newWorld(1, netsim.Ethernet.Params())
	w.sim.Run(func() {
		w.node("server", echoHandler)
		c := w.node("client", nil)
		rep, err := c.Call("server", []byte("hello"), CallOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if string(rep) != "hello" {
			t.Errorf("reply = %q", rep)
		}
	})
}

func TestCallRemoteError(t *testing.T) {
	w := newWorld(2, netsim.Ethernet.Params())
	w.sim.Run(func() {
		w.node("server", func(src string, _ obs.SpanContext, body []byte) ([]byte, error) {
			return nil, fmt.Errorf("permission denied")
		})
		c := w.node("client", nil)
		_, err := c.Call("server", []byte("x"), CallOpts{})
		var re *RemoteError
		if !errors.As(err, &re) || re.Msg != "permission denied" {
			t.Errorf("err = %v, want RemoteError(permission denied)", err)
		}
	})
}

func TestCallLargeBodyViaSFTP(t *testing.T) {
	w := newWorld(3, netsim.WaveLan.Params())
	w.sim.Run(func() {
		w.node("server", echoHandler)
		c := w.node("client", nil)
		body := bytes.Repeat([]byte("z"), 200<<10)
		rep, err := c.Call("server", body, CallOpts{Timeout: 10 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rep, body) {
			t.Errorf("large echo corrupted: %d bytes back, want %d", len(rep), len(body))
		}
	})
}

func TestCallSurvivesPacketLoss(t *testing.T) {
	p := netsim.WaveLan.Params()
	p.LossRate = 0.15
	w := newWorld(4, p)
	w.sim.Run(func() {
		w.node("server", echoHandler)
		c := w.node("client", nil)
		for i := 0; i < 40; i++ {
			rep, err := c.Call("server", []byte{byte(i)}, CallOpts{Timeout: 5 * time.Minute, MaxRetries: 20})
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			if len(rep) != 1 || rep[0] != byte(i) {
				t.Fatalf("call %d: bad reply %v", i, rep)
			}
		}
	})
}

func TestCallTimesOutOnDeadLink(t *testing.T) {
	w := newWorld(5, netsim.Ethernet.Params())
	w.sim.Run(func() {
		w.node("server", echoHandler)
		c := w.node("client", nil)
		w.net.SetUp("client", "server", false)
		start := w.sim.Now()
		_, err := c.Call("server", []byte("x"), CallOpts{Timeout: 30 * time.Second})
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if elapsed := w.sim.Now().Sub(start); elapsed > 31*time.Second {
			t.Errorf("timeout took %v, want ≤ ~30s", elapsed)
		}
	})
}

func TestAtMostOnceExecution(t *testing.T) {
	// Heavy loss forces retransmissions; the server must still execute
	// each distinct request exactly once.
	p := netsim.ISDN.Params()
	p.LossRate = 0.3
	w := newWorld(6, p)
	w.sim.Run(func() {
		counts := make(map[string]int)
		w.node("server", func(src string, _ obs.SpanContext, body []byte) ([]byte, error) {
			counts[string(body)]++
			return bytes.Clone(body), nil
		})
		c := w.node("client", nil)
		const calls = 25
		for i := 0; i < calls; i++ {
			key := fmt.Sprintf("req-%d", i)
			if _, err := c.Call("server", []byte(key), CallOpts{Timeout: 10 * time.Minute, MaxRetries: 30}); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
		}
		for k, n := range counts {
			if n != 1 {
				t.Errorf("request %s executed %d times", k, n)
			}
		}
		if len(counts) != calls {
			t.Errorf("executed %d distinct requests, want %d", len(counts), calls)
		}
	})
}

func TestBusyKeepsSlowCallAlive(t *testing.T) {
	w := newWorld(7, netsim.Ethernet.Params())
	w.sim.Run(func() {
		srv := w.node("server", nil)
		srv.handler = func(src string, _ obs.SpanContext, body []byte) ([]byte, error) {
			w.sim.Sleep(45 * time.Second) // longer than several RTOs
			return []byte("done"), nil
		}
		c := w.node("client", nil)
		rep, err := c.Call("server", []byte("slow"), CallOpts{Timeout: 2 * time.Minute, MaxRetries: 3})
		if err != nil {
			t.Fatalf("slow call failed: %v", err)
		}
		if string(rep) != "done" {
			t.Errorf("reply = %q", rep)
		}
	})
}

func TestRTTEstimateFromTimestampEcho(t *testing.T) {
	w := newWorld(8, netsim.Modem.Params())
	w.sim.Run(func() {
		w.node("server", echoHandler)
		c := w.node("client", nil)
		for i := 0; i < 5; i++ {
			if _, err := c.Call("server", []byte("x"), CallOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		srtt := c.Monitor().Peer("server").SRTT()
		// Modem: 2×100 ms latency plus serialization of ~100-byte
		// packets at 9600 b/s (~2×110 ms) ≈ 400 ms.
		if srtt < 200*time.Millisecond || srtt > time.Second {
			t.Errorf("SRTT over modem = %v, want ~400ms", srtt)
		}
	})
}

func TestAdaptiveRTOSpeedsRecovery(t *testing.T) {
	// After RTT samples exist, a lost packet should be retransmitted on
	// the order of the measured RTT, not InitialRTO.
	w := newWorld(9, netsim.Ethernet.Params())
	w.sim.Run(func() {
		w.node("server", echoHandler)
		c := w.node("client", nil)
		for i := 0; i < 10; i++ {
			c.Call("server", []byte("warm"), CallOpts{})
		}
		// Now drop exactly the next request packet.
		w.net.Configure("client", "server", func(p *netsim.LinkParams) { p.LossRate = 1.0 })
		w.sim.AfterFunc(300*time.Millisecond, func() {
			w.net.Configure("client", "server", func(p *netsim.LinkParams) { p.LossRate = 0 })
		})
		start := w.sim.Now()
		if _, err := c.Call("server", []byte("x"), CallOpts{}); err != nil {
			t.Fatal(err)
		}
		elapsed := w.sim.Now().Sub(start)
		if elapsed >= netmon.InitialRTO {
			t.Errorf("recovery took %v; adaptive RTO should beat InitialRTO %v", elapsed, netmon.InitialRTO)
		}
	})
}

func TestProbe(t *testing.T) {
	w := newWorld(10, netsim.Modem.Params())
	w.sim.Run(func() {
		w.node("server", nil) // probes need no handler
		c := w.node("client", nil)
		if err := c.Probe("server", 30*time.Second); err != nil {
			t.Fatalf("probe failed: %v", err)
		}
		w.net.SetUp("client", "server", false)
		if err := c.Probe("server", 10*time.Second); !errors.Is(err, ErrTimeout) {
			t.Errorf("probe on dead link = %v, want ErrTimeout", err)
		}
	})
}

func TestUnifiedKeepaliveLiveness(t *testing.T) {
	w := newWorld(11, netsim.Ethernet.Params())
	w.sim.Run(func() {
		w.node("server", echoHandler)
		c := w.node("client", nil)
		peer := c.Monitor().Peer("server")
		if peer.Alive(time.Minute) {
			t.Error("peer alive before traffic")
		}
		// A bulk SFTP transfer alone (no RPC reply packets) must refresh
		// liveness — the unified keepalive of §4.1.
		c.Call("server", bytes.Repeat([]byte("a"), 4<<10), CallOpts{})
		if !peer.Alive(time.Minute) {
			t.Error("peer not alive after traffic")
		}
	})
}

func TestServerCallsClient(t *testing.T) {
	// Symmetric operation: the server issues a call to the client, as
	// callback breaks require.
	w := newWorld(12, netsim.Ethernet.Params())
	w.sim.Run(func() {
		var gotBreak string
		w.node("client", func(src string, _ obs.SpanContext, body []byte) ([]byte, error) {
			gotBreak = string(body)
			return nil, nil
		})
		srv := w.node("server", echoHandler)
		if _, err := srv.Call("client", []byte("callback-break"), CallOpts{}); err != nil {
			t.Fatal(err)
		}
		if gotBreak != "callback-break" {
			t.Errorf("client saw %q", gotBreak)
		}
	})
}

func TestConcurrentCalls(t *testing.T) {
	w := newWorld(13, netsim.WaveLan.Params())
	w.sim.Run(func() {
		w.node("server", func(src string, _ obs.SpanContext, body []byte) ([]byte, error) {
			w.sim.Sleep(time.Duration(body[0]) * time.Millisecond)
			return bytes.Clone(body), nil
		})
		c := w.node("client", nil)
		done := simtime.NewQueue[error](w.sim)
		const calls = 20
		for i := 0; i < calls; i++ {
			i := i
			w.sim.Go(func() {
				rep, err := c.Call("server", []byte{byte(i), byte(i * 3)}, CallOpts{})
				if err == nil && (len(rep) != 2 || rep[0] != byte(i)) {
					err = fmt.Errorf("bad reply for %d", i)
				}
				done.Put(err)
			})
		}
		for i := 0; i < calls; i++ {
			if err, _ := done.Get(); err != nil {
				t.Error(err)
			}
		}
	})
}

func TestCloseFailsPendingCalls(t *testing.T) {
	w := newWorld(14, netsim.Ethernet.Params())
	w.sim.Run(func() {
		w.node("server", func(src string, _ obs.SpanContext, body []byte) ([]byte, error) {
			w.sim.Sleep(time.Hour)
			return nil, nil
		})
		c := w.node("client", nil)
		done := simtime.NewQueue[error](w.sim)
		w.sim.Go(func() {
			_, err := c.Call("server", []byte("x"), CallOpts{Timeout: 2 * time.Hour})
			done.Put(err)
		})
		w.sim.Sleep(time.Second)
		c.Close()
		err, _ := done.Get()
		if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrTimeout) {
			t.Errorf("pending call after Close: %v", err)
		}
		if _, err := c.Call("server", nil, CallOpts{}); !errors.Is(err, ErrClosed) {
			t.Errorf("call on closed node: %v", err)
		}
	})
}

func TestRawTransfer(t *testing.T) {
	w := newWorld(15, netsim.WaveLan.Params())
	w.sim.Run(func() {
		srv := w.node("server", nil)
		c := w.node("client", nil)
		data := bytes.Repeat([]byte("q"), 50<<10)
		done := simtime.NewQueue[error](w.sim)
		w.sim.Go(func() { done.Put(c.Transfer("server", 42, data)) })
		got, err := srv.AwaitTransfer("client", 42, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if e, _ := done.Get(); e != nil {
			t.Fatal(e)
		}
		if !bytes.Equal(got, data) {
			t.Error("raw transfer corrupted")
		}
	})
}

func TestReplyCacheFlushedOnClientRestart(t *testing.T) {
	// A restarted client begins a fresh sequence space at 1. The server's
	// reply cache must not answer the new node's first call with the old
	// node's first reply: the incarnation stamped on requests keys the
	// cache to one client lifetime.
	w := newWorld(11, netsim.Ethernet.Params())
	w.sim.Run(func() {
		var calls int
		w.node("server", func(src string, _ obs.SpanContext, body []byte) ([]byte, error) {
			calls++
			return []byte(fmt.Sprintf("exec %d: %s", calls, body)), nil
		})

		c1 := w.node("client", nil)
		rep, err := c1.Call("server", []byte("first life"), CallOpts{})
		if err != nil || string(rep) != "exec 1: first life" {
			t.Fatalf("first incarnation: %q, %v", rep, err)
		}
		c1.Close()

		w.sim.Sleep(time.Second) // a later birth instant → a new incarnation
		c2 := w.node("client", nil)
		rep, err = c2.Call("server", []byte("second life"), CallOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if string(rep) != "exec 2: second life" {
			t.Errorf("restarted client got %q — the old incarnation's cached reply", rep)
		}

		// Within one incarnation, at-most-once still holds: the sequence
		// space is fresh but retransmits of the same call stay dedup'd
		// (covered by TestAtMostOnceExecution; here we pin that restart
		// did not break normal caching).
		rep, err = c2.Call("server", []byte("again"), CallOpts{})
		if err != nil || string(rep) != "exec 3: again" {
			t.Errorf("follow-up call: %q, %v", rep, err)
		}
	})
}
