package netsim

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simtime"
)

func newNet(t *testing.T) (*simtime.Sim, *Network) {
	t.Helper()
	s := simtime.NewSim(simtime.Epoch1995)
	return s, New(s, 1)
}

func TestDeliveryBasic(t *testing.T) {
	s, n := newNet(t)
	s.Run(func() {
		a := n.Host("a")
		b := n.Host("b")
		if err := a.Send("b", []byte("hello")); err != nil {
			t.Fatal(err)
		}
		payload, src, ok := b.Recv()
		if !ok || string(payload) != "hello" || src != "a" {
			t.Fatalf("Recv = %q from %q, ok=%v", payload, src, ok)
		}
	})
}

// TestServeDelivers: a served endpoint's handler gets each datagram at its
// arrival, in arrival order, and the link counts it delivered then.
func TestServeDelivers(t *testing.T) {
	s, n := newNet(t)
	p := DefaultLinkParams()
	p.Bandwidth = 9600
	p.Latency = 0
	p.Overhead = 0
	n.SetLink("a", "b", p)
	s.Run(func() {
		a, b := n.Host("a"), n.Host("b")
		var got []string
		b.Serve(func(payload []byte, src string) {
			got = append(got, fmt.Sprintf("%v %s %s", s.Now().Sub(simtime.Epoch1995), src, payload[:1]))
		})
		for _, c := range "xyz" {
			payload := make([]byte, 1200) // one second each at 9600 b/s
			payload[0] = byte(c)
			if err := a.Send("b", payload); err != nil {
				t.Fatal(err)
			}
		}
		s.Sleep(10 * time.Second)
		if want := "[1s a x 2s a y 3s a z]"; fmt.Sprint(got) != want {
			t.Errorf("served %v, want %s", got, want)
		}
		if st := n.StatsBetween("a", "b"); st.PacketsDelivered != 3 || st.BytesDelivered != 3600 {
			t.Errorf("delivered %d packets, %d bytes; want 3, 3600", st.PacketsDelivered, st.BytesDelivered)
		}
		b.Close()
	})
}

func TestSerializationDelayMatchesBandwidth(t *testing.T) {
	s, n := newNet(t)
	p := DefaultLinkParams()
	p.Bandwidth = 9600
	p.Latency = 0
	p.Overhead = 0
	n.SetLink("a", "b", p)
	s.Run(func() {
		a := n.Host("a")
		b := n.Host("b")
		start := s.Now()
		if err := a.Send("b", make([]byte, 1200)); err != nil {
			t.Fatal(err)
		}
		_, _, ok := b.Recv()
		if !ok {
			t.Fatal("no delivery")
		}
		// 1200 bytes at 9600 b/s = exactly one second.
		if got := s.Now().Sub(start); got != time.Second {
			t.Errorf("delivery took %v, want 1s", got)
		}
	})
}

func TestLatencyAdds(t *testing.T) {
	s, n := newNet(t)
	p := DefaultLinkParams()
	p.Bandwidth = 0 // infinite
	p.Latency = 100 * time.Millisecond
	n.SetLink("a", "b", p)
	s.Run(func() {
		a := n.Host("a")
		b := n.Host("b")
		start := s.Now()
		a.Send("b", []byte("x"))
		b.Recv()
		if got := s.Now().Sub(start); got != 100*time.Millisecond {
			t.Errorf("latency = %v, want 100ms", got)
		}
	})
}

func TestBackToBackPacketsQueue(t *testing.T) {
	s, n := newNet(t)
	p := DefaultLinkParams()
	p.Bandwidth = 8000 // 1000 bytes/sec
	p.Latency = 0
	p.Overhead = 0
	n.SetLink("a", "b", p)
	s.Run(func() {
		a := n.Host("a")
		b := n.Host("b")
		start := s.Now()
		a.Send("b", make([]byte, 1000)) // 1s
		a.Send("b", make([]byte, 1000)) // queued behind: arrives at 2s
		b.Recv()
		if got := s.Now().Sub(start); got != time.Second {
			t.Errorf("first arrival at %v, want 1s", got)
		}
		b.Recv()
		if got := s.Now().Sub(start); got != 2*time.Second {
			t.Errorf("second arrival at %v, want 2s", got)
		}
	})
}

func TestLinkDownDropsSilently(t *testing.T) {
	s, n := newNet(t)
	s.Run(func() {
		a := n.Host("a")
		b := n.Host("b")
		n.SetUp("a", "b", false)
		if err := a.Send("b", []byte("lost")); err != nil {
			t.Fatalf("Send on down link errored: %v", err)
		}
		if _, _, ok := b.RecvTimeout(10 * time.Second); ok {
			t.Error("packet delivered across a down link")
		}
		st := n.StatsBetween("a", "b")
		if st.PacketsDropped != 1 {
			t.Errorf("dropped = %d, want 1", st.PacketsDropped)
		}

		// Reconnection restores delivery.
		n.SetUp("a", "b", true)
		a.Send("b", []byte("found"))
		if _, _, ok := b.RecvTimeout(10 * time.Second); !ok {
			t.Error("no delivery after link restored")
		}
	})
}

func TestLossRate(t *testing.T) {
	s, n := newNet(t)
	p := DefaultLinkParams()
	p.LossRate = 0.5
	n.SetLink("a", "b", p)
	s.Run(func() {
		a := n.Host("a")
		b := n.Host("b")
		const total = 2000
		for i := 0; i < total; i++ {
			a.Send("b", []byte("x"))
		}
		got := 0
		for {
			if _, _, ok := b.RecvTimeout(time.Second); !ok {
				break
			}
			got++
		}
		if got < total/2-150 || got > total/2+150 {
			t.Errorf("delivered %d of %d at 50%% loss", got, total)
		}
		st := n.StatsBetween("a", "b")
		if st.PacketsLost+st.PacketsDelivered != total {
			t.Errorf("lost(%d)+delivered(%d) != %d", st.PacketsLost, st.PacketsDelivered, total)
		}
	})
}

func TestMTUEnforced(t *testing.T) {
	s, n := newNet(t)
	p := DefaultLinkParams()
	p.MTU = 100
	n.SetLink("a", "b", p)
	s.Run(func() {
		a := n.Host("a")
		n.Host("b")
		err := a.Send("b", make([]byte, 101))
		if !errors.Is(err, ErrTooBig) {
			t.Errorf("err = %v, want ErrTooBig", err)
		}
		if err := a.Send("b", make([]byte, 100)); err != nil {
			t.Errorf("at-MTU packet rejected: %v", err)
		}
	})
}

func TestQueueOverflowTailDrop(t *testing.T) {
	s, n := newNet(t)
	p := DefaultLinkParams()
	p.Bandwidth = 8000 // 1000 B/s
	p.Overhead = 0
	p.QueueBytes = 2000
	n.SetLink("a", "b", p)
	s.Run(func() {
		a := n.Host("a")
		b := n.Host("b")
		for i := 0; i < 10; i++ {
			a.Send("b", make([]byte, 1000))
		}
		delivered := 0
		for {
			if _, _, ok := b.RecvTimeout(time.Minute); !ok {
				break
			}
			delivered++
		}
		// First packet starts transmitting immediately; roughly two more
		// fit the 2000-byte queue. The rest tail-drop.
		if delivered < 2 || delivered > 4 {
			t.Errorf("delivered %d with 2KB queue, want ~3", delivered)
		}
		if st := n.StatsBetween("a", "b"); st.PacketsDropped == 0 {
			t.Error("no tail drops recorded")
		}
	})
}

func TestIdleLinkDoesNotAccumulatePhantomBacklog(t *testing.T) {
	// Regression: the backlog computation once overflowed int64 when a
	// link had been idle longer than ~92 seconds, making the queue look
	// full and silently eating packets.
	s, n := newNet(t)
	s.Run(func() {
		a := n.Host("a")
		b := n.Host("b")
		a.Send("b", []byte("warm"))
		b.Recv()
		s.Sleep(3 * time.Hour) // long idle
		if err := a.Send("b", []byte("after idle")); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := b.RecvTimeout(time.Minute); !ok {
			t.Error("packet dropped after long idle period")
		}
		if st := n.StatsBetween("a", "b"); st.PacketsDropped != 0 {
			t.Errorf("dropped = %d on an idle healthy link", st.PacketsDropped)
		}
	})
}

func TestDynamicBandwidthChange(t *testing.T) {
	s, n := newNet(t)
	n.SetLink("a", "b", Ethernet.Params())
	s.Run(func() {
		a := n.Host("a")
		b := n.Host("b")
		a.Send("b", make([]byte, 1000))
		b.Recv()
		fast := s.Now()

		n.Configure("a", "b", func(p *LinkParams) {
			p.Bandwidth = Modem.Bandwidth
			p.Latency = Modem.Latency
		})
		a.Send("b", make([]byte, 1000))
		b.Recv()
		slow := s.Now().Sub(fast)
		// ~1028 bytes at 9600 b/s ≈ 857ms plus 100ms latency.
		if slow < 800*time.Millisecond {
			t.Errorf("post-change delivery took %v, want modem-scale delay", slow)
		}
	})
}

func TestSendToUnknownHostVanishes(t *testing.T) {
	s, n := newNet(t)
	s.Run(func() {
		a := n.Host("a")
		if err := a.Send("ghost", []byte("x")); err != nil {
			t.Errorf("Send to unknown host errored: %v", err)
		}
	})
}

func TestClosedEndpoint(t *testing.T) {
	s, n := newNet(t)
	s.Run(func() {
		a := n.Host("a")
		b := n.Host("b")
		b.Close()
		if err := b.Send("a", []byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("Send on closed endpoint: %v", err)
		}
		if _, _, ok := b.Recv(); ok {
			t.Error("Recv on closed endpoint returned ok")
		}
		_ = a
	})
}

func TestProfileSpeedLabels(t *testing.T) {
	cases := map[string]string{
		Ethernet.Name: "10 Mb/s",
		WaveLan.Name:  "2 Mb/s",
		ISDN.Name:     "64 Kb/s",
		Modem.Name:    "9.6 Kb/s",
	}
	for _, p := range StandardNetworks {
		if got := p.SpeedLabel(); got != cases[p.Name] {
			t.Errorf("%s label = %q, want %q", p.Name, got, cases[p.Name])
		}
	}
}

// Property: payloads arrive intact and in FIFO order per sender on a
// loss-free link.
func TestPayloadIntegrityProperty(t *testing.T) {
	f := func(msgs [][]byte) bool {
		s := simtime.NewSim(simtime.Epoch1995)
		n := New(s, 7)
		ok := true
		s.Run(func() {
			a := n.Host("a")
			b := n.Host("b")
			sent := 0
			for _, m := range msgs {
				if len(m) > 1400 {
					m = m[:1400]
				}
				if err := a.Send("b", m); err != nil {
					ok = false
					return
				}
				sent++
			}
			for i := 0; i < sent; i++ {
				got, _, alive := b.RecvTimeout(time.Minute)
				if !alive {
					ok = false
					return
				}
				want := msgs[i]
				if len(want) > 1400 {
					want = want[:1400]
				}
				if string(got) != string(want) {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestUDPAdapterRoundTrip(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// b answers each ping from its handler; a's handler reports what came
	// back and from where.
	b.Serve(func(payload []byte, src string) {
		if string(payload) == "ping" {
			if err := b.Send(src, []byte("pong")); err != nil {
				t.Error(err)
			}
		}
	})
	type datagram struct{ payload, src string }
	got := make(chan datagram, 1)
	a.Serve(func(payload []byte, src string) {
		select {
		case got <- datagram{string(payload), src}:
		default:
		}
	})
	if err := a.Send(b.LocalAddr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-got:
		if d.payload != "pong" || d.src != b.LocalAddr() {
			t.Fatalf("reply = %q from %s, want \"pong\" from %s", d.payload, d.src, b.LocalAddr())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no reply within 2 s")
	}
}

func TestAsymmetricLink(t *testing.T) {
	// A cable-TV-style link: fast downstream, slow upstream.
	s, n := newNet(t)
	down := DefaultLinkParams()
	down.Bandwidth = 8_000_000
	down.Latency = 0
	down.Overhead = 0
	up := down
	up.Bandwidth = 8000 // 1000 B/s upstream
	n.SetLink("headend", "home", down)
	n.ConfigureOneWay("home", "headend", func(p *LinkParams) { *p = up })

	s.Run(func() {
		he := n.Host("headend")
		hm := n.Host("home")
		start := s.Now()
		he.Send("home", make([]byte, 1000))
		hm.Recv()
		downTime := s.Now().Sub(start)

		start = s.Now()
		hm.Send("headend", make([]byte, 1000))
		he.Recv()
		upTime := s.Now().Sub(start)

		if upTime < 500*downTime {
			t.Errorf("asymmetry not modeled: down %v, up %v", downTime, upTime)
		}
	})
}

func TestHostReturnsFreshEndpointAfterClose(t *testing.T) {
	// A closed endpoint models a machine going down; Host for the same
	// address afterwards models its reboot. Traffic sent post-reboot must
	// reach the replacement endpoint, and the dead endpoint must stay dead.
	s := simtime.NewSim(simtime.Epoch1995)
	n := New(s, 1)
	old := n.Host("srv")
	if n.Host("srv") != old {
		t.Fatal("Host returned a new endpoint while the old one was open")
	}
	old.Close()
	fresh := n.Host("srv")
	if fresh == old {
		t.Fatal("Host returned the closed endpoint")
	}
	s.Run(func() {
		peer := n.Host("peer")
		if err := peer.Send("srv", []byte("hello")); err != nil {
			t.Fatal(err)
		}
		payload, src, ok := fresh.RecvTimeout(time.Minute)
		if !ok || src != "peer" || string(payload) != "hello" {
			t.Fatalf("rebooted endpoint: %q from %q, ok=%v", payload, src, ok)
		}
		if _, _, ok := old.RecvTimeout(time.Second); ok {
			t.Error("closed endpoint still receives")
		}
		if err := old.Send("peer", nil); err == nil {
			t.Error("closed endpoint still sends")
		}
	})
}
