package netmon

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simtime"
)

func TestRTOBeforeSamples(t *testing.T) {
	m := NewMonitor(simtime.NewSim(simtime.Epoch1995))
	p := m.Peer("server")
	if got := p.RTO(); got != InitialRTO {
		t.Errorf("RTO with no samples = %v, want %v", got, InitialRTO)
	}
}

func TestRTTFirstSampleInitializes(t *testing.T) {
	m := NewMonitor(simtime.NewSim(simtime.Epoch1995))
	p := m.Peer("server")
	p.ObserveRTT(200 * time.Millisecond)
	if got := p.SRTT(); got != 200*time.Millisecond {
		t.Errorf("SRTT = %v, want 200ms", got)
	}
	// RTO = srtt + 4*rttvar = 200 + 4*100 = 600ms, clamped up to MinRTO.
	if got := p.RTO(); got != MinRTO {
		t.Errorf("RTO = %v, want MinRTO %v", got, MinRTO)
	}
}

func TestRTTConvergesToSteadyValue(t *testing.T) {
	m := NewMonitor(simtime.NewSim(simtime.Epoch1995))
	p := m.Peer("server")
	for i := 0; i < 100; i++ {
		p.ObserveRTT(50 * time.Millisecond)
	}
	srtt := p.SRTT()
	if srtt < 45*time.Millisecond || srtt > 55*time.Millisecond {
		t.Errorf("SRTT after steady samples = %v, want ~50ms", srtt)
	}
	// With variance decayed near zero, RTO clamps at MinRTO.
	if got := p.RTO(); got != MinRTO {
		t.Errorf("steady RTO = %v, want MinRTO %v", got, MinRTO)
	}
}

func TestRTOClampMax(t *testing.T) {
	m := NewMonitor(simtime.NewSim(simtime.Epoch1995))
	p := m.Peer("server")
	p.ObserveRTT(5 * time.Minute)
	if got := p.RTO(); got != MaxRTO {
		t.Errorf("RTO = %v, want MaxRTO %v", got, MaxRTO)
	}
}

func TestRTTIgnoresNonPositive(t *testing.T) {
	m := NewMonitor(simtime.NewSim(simtime.Epoch1995))
	p := m.Peer("server")
	p.ObserveRTT(0)
	p.ObserveRTT(-time.Second)
	if p.SRTT() != 0 {
		t.Error("non-positive samples changed SRTT")
	}
}

func TestBandwidthFirstSample(t *testing.T) {
	m := NewMonitor(simtime.NewSim(simtime.Epoch1995))
	p := m.Peer("server")
	p.ObserveTransfer(1200, time.Second) // 9600 b/s
	if got := p.Bandwidth(); got != 9600 {
		t.Errorf("Bandwidth = %d, want 9600", got)
	}
}

func TestBandwidthLargeTransfersDominate(t *testing.T) {
	m := NewMonitor(simtime.NewSim(simtime.Epoch1995))
	p := m.Peer("server")
	// A big transfer establishes ~2 Mb/s.
	p.ObserveTransfer(1<<20, 4*time.Second)
	// Small RPCs whose apparent rate is latency-bound must not wreck it.
	for i := 0; i < 20; i++ {
		p.ObserveTransfer(100, 10*time.Millisecond) // apparent 80 Kb/s
	}
	if got := p.Bandwidth(); got < 1_500_000 {
		t.Errorf("Bandwidth dragged to %d by small RPCs", got)
	}
}

func TestBandwidthTracksChange(t *testing.T) {
	m := NewMonitor(simtime.NewSim(simtime.Epoch1995))
	p := m.Peer("server")
	p.ObserveTransfer(1<<20, time.Second) // ~8.4 Mb/s
	// Move to a modem: repeated slow bulk samples should converge down.
	for i := 0; i < 30; i++ {
		p.ObserveTransfer(36<<10, 30*time.Second) // 9.8 Kb/s
	}
	got := p.Bandwidth()
	if got > 100_000 {
		t.Errorf("Bandwidth = %d after sustained modem transfers, want near 10K", got)
	}
}

// TestExchangeNetOfLatency: small round trips on a fast, 1 ms path must
// read as the path's bandwidth, not as bytes over latency.
func TestExchangeNetOfLatency(t *testing.T) {
	m := NewMonitor(simtime.NewSim(simtime.Epoch1995))
	p := m.Peer("server")
	// 10 Mb/s, 1 ms round trip: an exchange of b bytes takes 1 ms + b·0.8 µs.
	exchange := func(b int64) { p.ObserveExchange(b, time.Millisecond+time.Duration(b)*800*time.Nanosecond) }
	exchange(10)
	if got := p.Bandwidth(); got != 0 {
		t.Errorf("the first exchange only sets the latency floor; Bandwidth = %d", got)
	}
	near10M := func(bw int64) bool { return bw >= 9_999_999 && bw <= 10_000_001 }
	exchange(60)
	if got := p.Bandwidth(); !near10M(got) {
		t.Errorf("Bandwidth = %d after a second exchange, want 10 Mb/s", got)
	}
	exchange(10) // nothing beyond the floor: no information
	exchange(5)  // a faster exchange becomes the floor
	exchange(4096)
	if got := p.Bandwidth(); !near10M(got) {
		t.Errorf("Bandwidth = %d, want it to stay at 10 Mb/s", got)
	}
	p.Forget()
	exchange(60)
	if got := p.Bandwidth(); got != 0 {
		t.Errorf("Forget kept the latency floor; Bandwidth = %d", got)
	}
}

func TestSetBandwidthOverride(t *testing.T) {
	m := NewMonitor(simtime.NewSim(simtime.Epoch1995))
	p := m.Peer("server")
	p.SetBandwidth(64_000)
	if p.Bandwidth() != 64_000 {
		t.Error("SetBandwidth not applied")
	}
}

func TestLivenessWindow(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	m := NewMonitor(s)
	p := m.Peer("server")
	s.Run(func() {
		if p.Alive(time.Minute) {
			t.Error("peer alive before any traffic")
		}
		p.Heard()
		if !p.Alive(time.Minute) {
			t.Error("peer not alive immediately after Heard")
		}
		s.Sleep(2 * time.Minute)
		if p.Alive(time.Minute) {
			t.Error("peer still alive after window expired")
		}
		p.Heard()
		if !p.Alive(time.Minute) {
			t.Error("peer not revived by new traffic")
		}
	})
}

func TestForget(t *testing.T) {
	m := NewMonitor(simtime.NewSim(simtime.Epoch1995))
	p := m.Peer("server")
	p.ObserveRTT(time.Second)
	p.ObserveTransfer(1000, time.Second)
	p.Heard()
	p.Forget()
	if p.SRTT() != 0 || p.Bandwidth() != 0 {
		t.Error("Forget left estimates behind")
	}
	if _, ever := p.LastHeard(); ever {
		t.Error("Forget left liveness behind")
	}
	if p.RTO() != InitialRTO {
		t.Error("Forget did not reset RTO")
	}
}

func TestPeerIdentity(t *testing.T) {
	m := NewMonitor(simtime.NewSim(simtime.Epoch1995))
	if m.Peer("a") != m.Peer("a") {
		t.Error("Peer not stable per address")
	}
	if m.Peer("a") == m.Peer("b") {
		t.Error("distinct addresses share a Peer")
	}
	if len(m.Peers()) != 2 {
		t.Errorf("Peers() len = %d, want 2", len(m.Peers()))
	}
	if m.Peer("a").Addr() != "a" {
		t.Error("Addr mismatch")
	}
}

// Property: RTO is always within [MinRTO, MaxRTO] after any sample history.
func TestRTOBoundsProperty(t *testing.T) {
	f := func(samplesMs []uint16) bool {
		m := NewMonitor(simtime.NewSim(simtime.Epoch1995))
		p := m.Peer("x")
		for _, ms := range samplesMs {
			p.ObserveRTT(time.Duration(ms) * time.Millisecond)
		}
		rto := p.RTO()
		if len(samplesMs) == 0 {
			return rto == InitialRTO
		}
		hasPositive := false
		for _, ms := range samplesMs {
			if ms > 0 {
				hasPositive = true
			}
		}
		if !hasPositive {
			return rto == InitialRTO
		}
		return rto >= MinRTO && rto <= MaxRTO
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: bandwidth estimate stays within the min/max of observed sample
// rates (it is a convex combination of samples).
func TestBandwidthConvexProperty(t *testing.T) {
	f := func(kbs []uint8) bool {
		m := NewMonitor(simtime.NewSim(simtime.Epoch1995))
		p := m.Peer("x")
		lo, hi := int64(1<<62), int64(0)
		any := false
		for _, kb := range kbs {
			if kb == 0 {
				continue
			}
			bytes := int64(kb) * 1024
			p.ObserveTransfer(bytes, time.Second)
			rate := bytes * 8
			if rate < lo {
				lo = rate
			}
			if rate > hi {
				hi = rate
			}
			any = true
		}
		if !any {
			return p.Bandwidth() == 0
		}
		got := p.Bandwidth()
		return got >= lo-1 && got <= hi+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEstimatorsAllocateNothing fences the observers rpc2 and sftp call
// per packet, per reply and per send decision: each runs under the
// peer's own mutex and allocates nothing.
func TestEstimatorsAllocateNothing(t *testing.T) {
	p := NewMonitor(simtime.NewSim(simtime.Epoch1995)).Peer("server")
	for name, fn := range map[string]func(){
		"ObserveRTT":      func() { p.ObserveRTT(300 * time.Millisecond) },
		"RTO":             func() { _ = p.RTO() },
		"ObserveTransfer": func() { p.ObserveTransfer(64<<10, 2*time.Second) },
		"ObserveExchange": func() { p.ObserveExchange(4<<10, 500*time.Millisecond) },
		"Heard":           p.Heard,
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}
