package sftp

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

var updateAcks = flag.Bool("update", false, "rewrite testdata/receive_acks.golden from this receiver")

// receiver is an Engine with nothing behind it: acks land in a slice
// instead of on a wire, so a test can feed Deliver by hand and read back
// exactly what the receive side answered.
type receiver struct {
	*Engine
	acks []ackInfo
}

func newReceiver(clock simtime.Clock) *receiver {
	r := &receiver{}
	r.Engine = NewEngine(clock, netmon.NewMonitor(clock), func(dst string, p []byte) error {
		if p[0] != tagAck {
			return nil
		}
		if _, cum, bitmap, ok := decodeAck(p); ok {
			r.acks = append(r.acks, ackInfo{cum, bitmap})
		}
		return nil
	}, nil, "rx")
	return r
}

// fragment frames packet seq of a transfer of data, as Send would, without
// the ack request.
func fragment(id uint64, seq uint32, data []byte) []byte {
	lo := min(int(seq)*DataPacketSize, len(data))
	hi := min(lo+DataPacketSize, len(data))
	return appendData(nil, id, seq, uint64(len(data)), obs.SpanContext{}, false, data[lo:hi])
}

// receiveSchedule feeds one transfer of size bytes into a fresh receiver
// in a seeded order with loss (a fragment withheld and delivered later),
// duplicates and reordering, never beyond the window a real sender keeps:
// nothing at or past cum+WindowPackets, cum being the receiver's
// cumulative count. A second seeded roll sets flagAckMe on about one
// fragment in four; it draws from its own source, so the order is the one
// the map-based receiver was fed. A map of the fragments delivered so far
// says which must be acked: a flagged one, a duplicate, one that arrives
// with a hole open or leaves one, and the one that completes the
// transfer. It appends one "size seq cum bitmap" line per ack, and "size
// seq -" per fragment stored silently, to log and checks the bytes Await
// hands back.
func receiveSchedule(t *testing.T, log *bytes.Buffer, seed int64, size int) {
	t.Helper()
	s := simtime.NewSim(simtime.Epoch1995)
	s.Run(func() {
		rx := newReceiver(s)
		r := rand.New(rand.NewSource(seed))
		flags := rand.New(rand.NewSource(-seed))
		data := make([]byte, size)
		r.Read(data)
		total := packetCount(uint64(size))

		var held []uint32 // withheld fragments: lost or overtaken, delivered later
		have := map[uint32]bool{}
		next, cum := uint32(0), uint32(0)
		for cum < total {
			fresh := next < total && next < cum+WindowPackets
			var seq uint32
			switch roll := r.Intn(10); {
			case fresh && roll < 6:
				seq = next
				next++
				if r.Intn(4) == 0 {
					held = append(held, seq)
					continue
				}
			case len(held) > 0 && (roll < 9 || !fresh):
				i := r.Intn(len(held))
				seq = held[i]
				held = append(held[:i], held[i+1:]...)
			case next > 0:
				seq = uint32(r.Intn(int(next))) // duplicate, or a held one early
			default:
				continue
			}
			p := fragment(1, seq, data)
			flagged := flags.Intn(4) == 0
			if flagged {
				p[0] |= flagAckMe
			}
			holeBefore := len(have) > int(cum)
			dup := have[seq]
			have[seq] = true
			for have[cum] {
				cum++
			}
			want := 0
			if flagged || dup || holeBefore || len(have) > int(cum) || cum == total {
				want = 1
			}

			before := len(rx.acks)
			rx.Deliver("tx", p)
			if got := len(rx.acks) - before; got != want {
				t.Fatalf("size %d: fragment %d (flagged %v, duplicate %v, hole before %v) answered with %d acks, want %d",
					size, seq, flagged, dup, holeBefore, got, want)
			}
			if want == 0 {
				fmt.Fprintf(log, "%d %d -\n", size, seq)
				continue
			}
			ack := rx.acks[before]
			fmt.Fprintf(log, "%d %d %d %016x\n", size, seq, ack.cum, ack.bitmap)
			if ack.cum != cum {
				t.Fatalf("size %d: fragment %d acked cum %d, want %d", size, seq, ack.cum, cum)
			}
		}
		got, err := rx.Await("tx", 1, time.Second)
		if err != nil {
			t.Fatalf("size %d: Await: %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("size %d: assembled bytes differ from the input", size)
		}
	})
}

// TestReceiveAcksMatchMapReceiver pins the receive side's observable
// behaviour — exactly one ack for each fragment the rule above asks to
// be acked and none for any other, and each ack's cumulative count and
// bitmap — for the schedules the map-based receiver was fed:
// testdata/receive_acks.golden keeps that receiver's line, unchanged, for
// every fragment still acked, and has "-" for each one now stored
// silently. Sim time everywhere depends on these acks not moving.
func TestReceiveAcksMatchMapReceiver(t *testing.T) {
	var log bytes.Buffer
	for i, size := range []int{0, 1, DataPacketSize, DataPacketSize + 1, 100_000, 64 * DataPacketSize, 400_001} {
		receiveSchedule(t, &log, int64(i+1), size)
	}
	golden := filepath.Join("testdata", "receive_acks.golden")
	if *updateAcks {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(log.Bytes(), want) {
		g, w := bytes.Split(log.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(g) && i < len(w); i++ {
			if !bytes.Equal(g[i], w[i]) {
				t.Fatalf("line %d: got %q, want %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(g), len(w))
	}
}

// TestDeliverDropsForgedFragments: a fragment whose header cannot have
// come from Send — a size no uint32 packet count covers, a later fragment
// disagreeing with the first, a payload that is not its slot's length, a
// sequence number past the end or past the window — is dropped without
// an ack and without touching reassembly state, and the genuine transfer
// still completes. The first row crashed the node before the header was
// validated (makeslice: cap out of range, from the claimed totalBytes).
// The packet count is derived from totalBytes (TestHeaderRoundTrip), so a
// count no sender cuts is not expressible on the wire.
func TestDeliverDropsForgedFragments(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	s.Run(func() {
		rx := newReceiver(s)
		data := bytes.Repeat([]byte("genuine!"), 100*DataPacketSize/8+1) // 100 full packets and a short tail
		total, size := packetCount(uint64(len(data))), uint64(len(data))
		full := make([]byte, DataPacketSize)
		frame := func(id uint64, seq uint32, totalBytes uint64, payload []byte) []byte {
			return appendData(nil, id, seq, totalBytes, obs.SpanContext{}, false, payload)
		}
		// No transfer exists yet: these may not create one.
		for name, p := range map[string][]byte{
			"claims 4 EB in one packet":    frame(7, 0, 1<<62, []byte("x")),
			"beyond uint32 packet numbers": frame(7, 0, maxTotalBytes+1, full),
			"short first packet":           frame(7, 0, DataPacketSize+1, []byte("short")),
			"long only packet":             frame(7, 0, 5, full),
			"payload beyond a packet":      frame(7, 0, 2*DataPacketSize, make([]byte, DataPacketSize+1)),
			"first beyond the window":      frame(7, WindowPackets, 100*DataPacketSize, full),
		} {
			rx.Deliver("tx", p)
			if len(rx.acks) != 0 || len(rx.incoming) != 0 {
				t.Fatalf("%s: %d ack(s), %d transfer(s) in reassembly, want none", name, len(rx.acks), len(rx.incoming))
			}
		}

		rx.Deliver("tx", fragment(1, 0, data))
		rx.Deliver("tx", fragment(1, 2, data))
		acks, in := len(rx.acks), rx.incoming[key{"tx", 1}]
		before := *in
		for name, p := range map[string][]byte{
			"different total":       frame(1, 1, size+DataPacketSize, full),
			"different totalBytes":  frame(1, 1, size-1, full),
			"short middle packet":   frame(1, 1, size, full[:DataPacketSize-1]),
			"long last packet":      frame(1, total-1, size, full),
			"past the end":          frame(1, total, size, full),
			"past the window":       frame(1, 1+WindowPackets, size, full),
			"far past the window":   frame(1, total-2, size, full),
			"empty payload mid-way": frame(1, 1, size, nil),
		} {
			rx.Deliver("tx", p)
			if len(rx.acks) != acks {
				t.Errorf("%s: acked", name)
			}
			if in.cum != before.cum || in.window != before.window || len(in.buf) != len(before.buf) {
				t.Errorf("%s: reassembly state moved: cum %d window %x len %d", name, in.cum, in.window, len(in.buf))
			}
		}
		if len(in.buf) > 3*DataPacketSize || cap(in.buf) > frameClass(WindowPackets*DataPacketSize) {
			t.Errorf("reassembly holds len %d cap %d after three packets", len(in.buf), cap(in.buf))
		}

		for seq := uint32(0); seq < total; seq++ {
			rx.Deliver("tx", fragment(1, seq, data))
		}
		got, err := rx.Await("tx", 1, time.Second)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("genuine transfer after the forgeries: %d bytes, err %v", len(got), err)
		}
		if cap(got) > frameClass(len(data)) {
			t.Errorf("assembled buffer has cap %d for %d bytes, beyond its frame class", cap(got), len(data))
		}
	})
}

// frameClasses remembers frameClass's answers: a frame above the pool's
// largest listed class is made afresh on every Frame, which would cost
// FuzzDeliver's bound check most of its executions.
var frameClasses sync.Map // n -> capacity

// frameClass is the capacity of the bufpool frame that holds n bytes.
func frameClass(n int) int {
	if c, ok := frameClasses.Load(n); ok {
		return c.(int)
	}
	f := bufpool.Frame(n)
	defer bufpool.Free(f)
	frameClasses.Store(n, cap(f))
	return cap(f)
}

// TestAbandonedTransferReturnsItsBuffer: reassembly buffers are bufpool
// frames, and one nobody will take goes back to the pool — on an Await
// that times out, and on a Sweep, finished or not. A test binary poisons
// what it frees, so each buffer reads as bufpool.Poison afterwards.
func TestAbandonedTransferReturnsItsBuffer(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	s.Run(func() {
		rx := newReceiver(s)
		data := bytes.Repeat([]byte("abandon"), 3*DataPacketSize)
		total := packetCount(uint64(len(data)))
		buf := func(id uint64) []byte {
			rx.mu.Lock()
			defer rx.mu.Unlock()
			b := rx.incoming[key{"tx", id}].buf
			return b[:cap(b)]
		}
		freed := func(b []byte, how string) {
			t.Helper()
			for i, c := range b {
				if c != bufpool.Poison {
					t.Errorf("%s: the reassembly buffer was not freed (byte %d is %#x)", how, i, c)
					return
				}
			}
		}
		deliver := func(id uint64, upTo uint32) {
			for seq := uint32(0); seq < upTo; seq++ {
				rx.Deliver("tx", fragment(id, seq, data))
			}
		}

		deliver(1, total-1)
		stalled := buf(1)
		if _, err := rx.Await("tx", 1, time.Second); !errors.Is(err, ErrAwaitTimeout) {
			t.Fatalf("Await of a stalled transfer: %v, want ErrAwaitTimeout", err)
		}
		freed(stalled, "Await timeout")

		deliver(2, total-1)
		deliver(3, total)
		unfinished, finished := buf(2), buf(3)
		rx.Sweep()
		rx.Sweep()
		freed(unfinished, "Sweep of an unfinished transfer")
		freed(finished, "Sweep of a finished, unclaimed transfer")
	})
}

// engineMaps reports how many transfers the engine holds in reassembly
// and how many completion queues it keeps.
func engineMaps(e *Engine) (incoming, done int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.incoming), len(e.done)
}

// TestAwaitTimeoutFreesAbandonedTransfer: the sender loses the link
// mid-transfer; once the receiver's Await gives up, nothing of the
// transfer is left in the engine, and the sender's retransmissions after
// the link returns find no one and start nothing.
func TestAwaitTimeoutFreesAbandonedTransfer(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(s, 11)
	net.SetDefaults(netsim.ISDN.Params())
	s.Run(func() {
		a, b := newPair(s, net)
		data := bytes.Repeat([]byte("abandon"), 30_000) // 210 KB ≈ 26 s at ISDN
		s.AfterFunc(5*time.Second, func() { net.SetUp("a", "b", false) })
		done := simtime.NewQueue[error](s)
		s.Go(func() { done.Put(a.engine.Send("b", 1, data, obs.SpanContext{})) })

		s.Sleep(4 * time.Second)
		if in, _ := engineMaps(b.engine); in != 1 {
			t.Fatalf("%d transfers in reassembly four seconds in, want 1", in)
		}
		_, err := b.engine.Await("a", 1, 20*time.Second)
		if !errors.Is(err, ErrAwaitTimeout) {
			t.Fatalf("Await: %v, want ErrAwaitTimeout", err)
		}
		if in, dn := engineMaps(b.engine); in != 0 || dn != 0 {
			t.Errorf("after the await deadline: %d in reassembly, %d completion queues, want 0 and 0", in, dn)
		}

		// The sender is still backing off; let its fragments through again.
		net.SetUp("a", "b", true)
		if sendErr, _ := done.Get(); !errors.Is(sendErr, ErrTransferFailed) {
			t.Errorf("Send to a receiver that gave up: %v, want ErrTransferFailed", sendErr)
		}
		if in, dn := engineMaps(b.engine); in != 0 || dn != 0 {
			t.Errorf("late fragments resurrected state: %d in reassembly, %d completion queues", in, dn)
		}
	})
}

// TestSweepFreesUnawaitedTransfer: a transfer nobody ever Awaits — the
// header packet that announces it was lost — used to sit in the engine
// for good, finished or not. Sweep frees one that went a whole interval
// between sweeps with no fragment and no Await, spares one that is still
// moving or awaited, and leaves late fragments nothing to rebuild.
func TestSweepFreesUnawaitedTransfer(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	s.Run(func() {
		rx := newReceiver(s)
		data := bytes.Repeat([]byte("orphan"), DataPacketSize)
		total := packetCount(uint64(len(data)))
		// Transfer 1 finishes; 2, 3 and 4 stall one fragment short. Only 4 is awaited.
		for id := uint64(1); id <= 4; id++ {
			for seq := uint32(0); seq < total; seq++ {
				if id == 1 || seq+1 < total {
					rx.Deliver("tx", fragment(id, seq, data))
				}
			}
		}
		awaited := simtime.NewQueue[error](s)
		s.Go(func() {
			got, err := rx.Await("tx", 4, time.Hour)
			if err == nil && !bytes.Equal(got, data) {
				err = errors.New("awaited transfer corrupted")
			}
			awaited.Put(err)
		})
		s.Sleep(time.Second)
		held := func(want int, when string) {
			t.Helper()
			if in, _ := engineMaps(rx.Engine); in != want {
				t.Fatalf("%s: %d transfers held, want %d", when, in, want)
			}
		}

		rx.Sweep()
		held(4, "first sweep (everything was touched since the engine began)")
		rx.Deliver("tx", fragment(3, 0, data)) // 3's sender is still retransmitting
		rx.Sweep()
		held(2, "second sweep (1 and 2 idle for an interval; 3 moving, 4 awaited)")
		rx.Sweep()
		held(1, "third sweep (3 went quiet too)")

		acks := len(rx.acks)
		rx.Deliver("tx", fragment(2, total-1, data))
		if len(rx.acks) != acks {
			t.Error("late fragment of a swept, unfinished transfer was acked")
		}
		rx.Deliver("tx", fragment(1, 0, data))
		if len(rx.acks) != acks+1 || rx.acks[acks].cum != total {
			t.Error("late fragment of a swept, finished transfer was not re-acked as complete")
		}
		held(1, "after late fragments")
		if _, err := rx.Await("tx", 1, time.Second); !errors.Is(err, ErrAwaitTimeout) {
			t.Errorf("Await of a swept transfer: %v, want ErrAwaitTimeout", err)
		}

		rx.Deliver("tx", fragment(4, total-1, data))
		if err, _ := awaited.Get(); err != nil {
			t.Errorf("awaited transfer across three sweeps: %v", err)
		}
		if in, dn := engineMaps(rx.Engine); in != 0 || dn != 0 {
			t.Errorf("at the end: %d in reassembly, %d completion queues, want 0 and 0", in, dn)
		}
	})
}

// FuzzDeliver feeds arbitrary payloads to Engine.Deliver, cut from the
// input as length-prefixed chunks so one input can hold a conversation.
// Nothing may panic, a datagram a decoder accepts re-frames to the bytes
// it was read from (one encoding per fragment and per ack), and
// reassembly may not hold more than it was fed: every transfer's buffer
// is within one window of the bytes delivered, whatever sizes the
// headers claimed, and its capacity is at most the frame class of what
// growth asks for — a window, or four times what is held — and of the
// claimed total.
func FuzzDeliver(f *testing.F) {
	chunks := func(ps ...[]byte) []byte {
		var in []byte
		for _, p := range ps {
			in = append(in, byte(len(p)>>8), byte(len(p)))
			in = append(in, p...)
		}
		return in
	}
	data := bytes.Repeat([]byte("z"), 2*DataPacketSize+1)
	asked := func(p []byte) []byte { p[0] |= flagAckMe; return p }
	f.Add(chunks(fragment(1, 2, data), fragment(1, 0, data), fragment(1, 2, data), fragment(1, 1, data), fragment(1, 1, data)))
	f.Add(chunks(appendData(nil, 7, 0, 1<<62, obs.SpanContext{}, true, []byte("x"))))
	f.Add(chunks(appendData(nil, 7, 63, maxTotalBytes, obs.SpanContext{Trace: 1, Span: 2}, true, make([]byte, DataPacketSize))))
	f.Add(chunks(fragment(2, 0, nil), fragment(2, 0, nil), appendAck(nil, 2, 1, 0)))
	f.Add([]byte{0, 1, tagData})
	for _, p := range refusedForms {
		f.Add(chunks(p))
	}
	f.Add(chunks(asked(fragment(3, 0, data)), fragment(3, 1, data), asked(fragment(3, 2, data))))

	f.Fuzz(func(t *testing.T, in []byte) {
		rx := newReceiver(simtime.NewSim(simtime.Epoch1995))
		const window = WindowPackets * DataPacketSize
		fed := 0
		for len(in) >= 2 {
			n := min(int(in[0])<<8|int(in[1]), len(in)-2)
			p := in[2 : 2+n]
			in = in[2+n:]
			rx.Deliver("peer", p)
			fed += len(p)
			if len(p) > 0 && p[0]&^(flagTraced|flagAckMe) == tagData {
				if id, seq, _, totalBytes, sc, data, ok := decodeData(p); ok &&
					!bytes.Equal(appendData(nil, id, seq, totalBytes, sc, p[0]&flagAckMe != 0, data), p) {
					t.Fatalf("accepted fragment % x does not re-frame to itself", p)
				}
			} else if len(p) > 0 && p[0] == tagAck {
				if id, cum, bitmap, ok := decodeAck(p); ok && !bytes.Equal(appendAck(nil, id, cum, bitmap), p) {
					t.Fatalf("accepted ack % x does not re-frame to itself", p)
				}
			}

			held := 0
			for k, tr := range rx.incoming {
				held += len(tr.buf)
				if c := cap(tr.buf); c > frameClass(max(window, 4*len(tr.buf))) ||
					uint64(c) > tr.totalBytes && c > frameClass(int(tr.totalBytes)) {
					t.Fatalf("transfer %d: cap %d for len %d of a claimed %d", k.id, c, len(tr.buf), tr.totalBytes)
				}
			}
			if held > fed+len(rx.incoming)*window {
				t.Fatalf("reassembly holds %d bytes in %d transfers after %d bytes fed", held, len(rx.incoming), fed)
			}
		}
	})
}

// TestAwaitOneTakerAtATime: a second Await on a transfer that already has
// a taker waiting fails at once, and the first still gets the transfer.
// (A waiting Await's completion queue is recycled once it has taken its
// item, so it cannot be shared.)
func TestAwaitOneTakerAtATime(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	s.Run(func() {
		rx := newReceiver(s)
		data := bytes.Repeat([]byte("taker"), 500)
		first := simtime.NewQueue[error](s)
		s.Go(func() {
			got, err := rx.Await("tx", 1, time.Minute)
			if err == nil && !bytes.Equal(got, data) {
				err = errors.New("transfer corrupted")
			}
			first.Put(err)
		})
		s.Sleep(time.Second)
		if _, err := rx.Await("tx", 1, time.Minute); err == nil {
			t.Error("a second concurrent Await of one transfer succeeded")
		}
		for seq := uint32(0); seq < packetCount(uint64(len(data))); seq++ {
			rx.Deliver("tx", fragment(1, seq, data))
		}
		if err, _ := first.Get(); err != nil {
			t.Errorf("first Await: %v", err)
		}
	})
}
