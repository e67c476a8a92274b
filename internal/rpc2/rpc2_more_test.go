package rpc2

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestTimestampWraparound: the 32-bit microsecond timestamp wraps every
// ~71 minutes; RTT estimation must survive sessions longer than that.
func TestTimestampWraparound(t *testing.T) {
	w := newWorld(20, netsim.Modem.Params())
	w.sim.Run(func() {
		w.node("server", echoHandler)
		c := w.node("client", nil)
		for session := 0; session < 4; session++ {
			for i := 0; i < 3; i++ {
				if _, err := c.Call("server", []byte("tick"), CallOpts{}); err != nil {
					t.Fatalf("session %d call %d: %v", session, i, err)
				}
			}
			srtt := c.Monitor().Peer("server").SRTT()
			if srtt <= 0 || srtt > 5*time.Second {
				t.Fatalf("session %d: SRTT = %v; wraparound corrupted estimation", session, srtt)
			}
			// Straddle the uint32-microsecond wrap (~71.6 minutes).
			w.sim.Sleep(40 * time.Minute)
		}
	})
}

// TestReplyCacheEviction: the duplicate-suppression cache is bounded; old
// entries are evicted and do not leak.
func TestReplyCacheEviction(t *testing.T) {
	w := newWorld(21, netsim.Ethernet.Params())
	w.sim.Run(func() {
		srv := w.node("server", echoHandler)
		c := w.node("client", nil)
		for i := 0; i < 600; i++ {
			if _, err := c.Call("server", []byte{byte(i)}, CallOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		srv.mu.Lock()
		pc := srv.replyCache["client"]
		cached := len(pc.replies)
		srv.mu.Unlock()
		if cached > 256 {
			t.Errorf("reply cache holds %d entries, want ≤ 256", cached)
		}
	})
}

// TestLargeRequestAndReplyBothViaSFTP exercises simultaneous big bodies in
// both directions.
func TestLargeRequestAndReplyBothViaSFTP(t *testing.T) {
	w := newWorld(22, netsim.WaveLan.Params())
	w.sim.Run(func() {
		w.node("server", func(src string, _ obs.SpanContext, body []byte) ([]byte, error) {
			// Reply with the reversed body (also large).
			out := make([]byte, len(body))
			for i, b := range body {
				out[len(body)-1-i] = b
			}
			return out, nil
		})
		c := w.node("client", nil)
		body := bytes.Repeat([]byte{1, 2, 3, 4}, 40<<10)
		rep, err := c.Call("server", body, CallOpts{Timeout: 10 * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep) != len(body) || rep[0] != body[len(body)-1] {
			t.Error("reversed large reply corrupted")
		}
	})
}

// TestManyPeersIsolation: per-peer state (reply caches, RTT) must not
// bleed between clients.
func TestManyPeersIsolation(t *testing.T) {
	w := newWorld(23, netsim.Ethernet.Params())
	w.sim.Run(func() {
		hits := make(map[string]int)
		srv := w.node("server", func(src string, _ obs.SpanContext, body []byte) ([]byte, error) {
			hits[src]++
			return bytes.Clone(body), nil
		})
		_ = srv
		const n = 8
		for i := 0; i < n; i++ {
			c := w.node(fmt.Sprintf("client%d", i), nil)
			for j := 0; j < 5; j++ {
				if _, err := c.Call("server", []byte{byte(j)}, CallOpts{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if len(hits) != n {
			t.Errorf("server saw %d distinct peers, want %d", len(hits), n)
		}
		for src, count := range hits {
			if count != 5 {
				t.Errorf("%s executed %d times, want 5 (at-most-once per peer)", src, count)
			}
		}
	})
}

// TestProbeRTTFeedsEstimator: probes alone must establish an RTT estimate
// (Venus uses them to judge connectivity without application traffic).
func TestProbeRTTFeedsEstimator(t *testing.T) {
	w := newWorld(24, netsim.ISDN.Params())
	w.sim.Run(func() {
		w.node("server", nil)
		c := w.node("client", nil)
		if err := c.Probe("server", 30*time.Second); err != nil {
			t.Fatal(err)
		}
		if c.Monitor().Peer("server").SRTT() <= 0 {
			t.Error("probe did not feed the RTT estimator")
		}
	})
}
