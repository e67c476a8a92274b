package sftp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// node bundles an endpoint with an Engine and a pump goroutine.
type node struct {
	ep     *netsim.Endpoint
	engine *Engine
}

func newPair(s *simtime.Sim, n *netsim.Network) (a, b *node) {
	return newLossyPair(s, n, nil)
}

// newLossyPair is newPair with every outgoing packet offered to lose first,
// when it is non-nil: a packet it reports lost never reaches the link.
func newLossyPair(s *simtime.Sim, n *netsim.Network, lose func(from string, p []byte) bool) (a, b *node) {
	mk := func(name string) *node {
		ep := n.Host(name)
		send := ep.Send
		if lose != nil {
			send = func(dst string, p []byte) error {
				if lose(name, p) {
					return nil
				}
				return ep.Send(dst, p)
			}
		}
		mon := netmon.NewMonitor(s)
		eng := NewEngine(s, mon, send, nil, name)
		s.Go(func() {
			for {
				payload, src, ok := ep.Recv()
				if !ok {
					return
				}
				eng.Deliver(src, payload)
			}
		})
		return &node{ep: ep, engine: eng}
	}
	return mk("a"), mk("b")
}

func runTransfer(t *testing.T, params netsim.LinkParams, size int) time.Duration {
	t.Helper()
	s := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(s, 42)
	net.SetDefaults(params)
	var elapsed time.Duration
	s.Run(func() {
		a, b := newPair(s, net)
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 7)
		}
		done := simtime.NewQueue[error](s)
		start := s.Now()
		s.Go(func() { done.Put(a.engine.Send("b", 1, data, obs.SpanContext{})) })
		got, err := b.engine.Await("a", 1, time.Hour)
		if err != nil {
			t.Errorf("Await: %v", err)
		}
		if sendErr, _ := done.Get(); sendErr != nil {
			t.Errorf("Send: %v", sendErr)
		}
		elapsed = s.Now().Sub(start)
		if !bytes.Equal(got, data) {
			t.Errorf("payload corrupted: got %d bytes, want %d", len(got), len(data))
		}
	})
	return elapsed
}

func TestTransferSmall(t *testing.T) {
	runTransfer(t, netsim.Ethernet.Params(), 100)
}

func TestTransferOnePacketExactly(t *testing.T) {
	runTransfer(t, netsim.Ethernet.Params(), DataPacketSize)
}

func TestTransferZeroLength(t *testing.T) {
	runTransfer(t, netsim.Ethernet.Params(), 0)
}

func TestTransferMegabyteEthernet(t *testing.T) {
	elapsed := runTransfer(t, netsim.Ethernet.Params(), 1<<20)
	// 1 MB at 10 Mb/s is ~0.88 s on the wire; allow protocol overhead.
	if elapsed > 3*time.Second {
		t.Errorf("1MB over Ethernet took %v", elapsed)
	}
}

func TestTransferModemThroughput(t *testing.T) {
	size := 64 << 10
	elapsed := runTransfer(t, netsim.Modem.Params(), size)
	ideal := time.Duration(float64(size*8) / 9600 * float64(time.Second))
	if elapsed < ideal {
		t.Errorf("transfer faster than line rate: %v < %v", elapsed, ideal)
	}
	if elapsed > ideal*13/10 {
		t.Errorf("modem transfer %v exceeds 1.3× ideal %v", elapsed, ideal)
	}
}

func TestTransferSurvivesLoss(t *testing.T) {
	p := netsim.WaveLan.Params()
	p.LossRate = 0.10
	runTransfer(t, p, 256<<10)
}

func TestTransferSevereLoss(t *testing.T) {
	p := netsim.ISDN.Params()
	p.LossRate = 0.30
	runTransfer(t, p, 32<<10)
}

func TestConcurrentTransfers(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(s, 3)
	net.SetDefaults(netsim.WaveLan.Params())
	s.Run(func() {
		a, b := newPair(s, net)
		const nt = 4
		done := simtime.NewQueue[error](s)
		for i := 0; i < nt; i++ {
			id := uint64(i + 1)
			data := bytes.Repeat([]byte{byte(id)}, 20<<10)
			s.Go(func() { done.Put(a.engine.Send("b", id, data, obs.SpanContext{})) })
		}
		for i := 0; i < nt; i++ {
			id := uint64(i + 1)
			got, err := b.engine.Await("a", id, time.Hour)
			if err != nil {
				t.Fatalf("Await %d: %v", id, err)
			}
			if len(got) != 20<<10 || got[0] != byte(id) {
				t.Errorf("transfer %d corrupted", id)
			}
		}
		for i := 0; i < nt; i++ {
			if err, _ := done.Get(); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
	})
}

func TestSendFailsOnDeadLink(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(s, 4)
	s.Run(func() {
		a, _ := newPair(s, net)
		net.SetUp("a", "b", false)
		err := a.engine.Send("b", 9, make([]byte, 5000), obs.SpanContext{})
		if !errors.Is(err, ErrTransferFailed) {
			t.Errorf("Send over dead link: %v, want ErrTransferFailed", err)
		}
	})
}

func TestAwaitTimeout(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(s, 5)
	s.Run(func() {
		_, b := newPair(s, net)
		_, err := b.engine.Await("a", 77, 5*time.Second)
		if !errors.Is(err, ErrAwaitTimeout) {
			t.Errorf("Await with no sender: %v, want ErrAwaitTimeout", err)
		}
	})
}

func TestBandwidthEstimateAfterTransfer(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(s, 6)
	net.SetDefaults(netsim.Modem.Params())
	s.Run(func() {
		a, b := newPair(s, net)
		mon := netmon.NewMonitor(s)
		a.engine.mon = mon
		data := make([]byte, 24<<10)
		done := simtime.NewQueue[error](s)
		s.Go(func() { done.Put(a.engine.Send("b", 1, data, obs.SpanContext{})) })
		if _, err := b.engine.Await("a", 1, time.Hour); err != nil {
			t.Fatal(err)
		}
		done.Get()
		bw := mon.Peer("b").Bandwidth()
		if bw < 6000 || bw > 9600 {
			t.Errorf("estimated bandwidth %d b/s over a 9600 b/s modem", bw)
		}
	})
}

// Property: any payload (up to 64 KB) survives a 5%-lossy link intact.
func TestTransferIntegrityProperty(t *testing.T) {
	f := func(seed int64, sizeRaw uint16) bool {
		size := int(sizeRaw) // 0..65535
		s := simtime.NewSim(simtime.Epoch1995)
		p := netsim.WaveLan.Params()
		p.LossRate = 0.05
		net := netsim.New(s, seed)
		net.SetDefaults(p)
		ok := true
		s.Run(func() {
			a, b := newPair(s, net)
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(seed>>uint(i%8) + int64(i))
			}
			done := simtime.NewQueue[error](s)
			s.Go(func() { done.Put(a.engine.Send("b", 1, data, obs.SpanContext{})) })
			got, err := b.engine.Await("a", 1, time.Hour)
			errSend, _ := done.Get()
			ok = err == nil && errSend == nil && bytes.Equal(got, data)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
