package rpc2

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sftp"
)

// TestReplyCacheEvictsSilentPeers: at-most-once state for a peer that has
// gone silent past the liveness window is reclaimed by the sweeper, while
// a peer that keeps calling retains its cache entry.
func TestReplyCacheEvictsSilentPeers(t *testing.T) {
	w := newWorld(11, netsim.Ethernet.Params())
	w.sim.Run(func() {
		srv := w.node("server", echoHandler)
		dead := w.node("dead", nil)
		live := w.node("live", nil)
		for _, c := range []*Node{dead, live} {
			if _, err := c.Call("server", []byte("hi"), CallOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		if got := srv.ReplyCacheSize(); got != 2 {
			t.Fatalf("ReplyCacheSize = %d, want 2", got)
		}

		// The live peer calls every half hour — always within the TTL. The
		// dead peer never calls again.
		for i := 0; i < 6; i++ {
			w.sim.Sleep(30 * time.Minute)
			if _, err := live.Call("server", []byte("still here"), CallOpts{}); err != nil {
				t.Fatal(err)
			}
		}

		// Three hours in, well past replyCacheTTL: only the live peer's
		// entry remains.
		if got := srv.ReplyCacheSize(); got != 1 {
			t.Errorf("ReplyCacheSize = %d, want 1 (silent peer evicted)", got)
		}

		// The evicted peer calling again is still served correctly — losing
		// the cache entry costs duplicate suppression history, not liveness.
		rep, err := dead.Call("server", []byte("back"), CallOpts{})
		if err != nil || string(rep) != "back" {
			t.Fatalf("evicted peer's call = %q, %v", rep, err)
		}
		if got := srv.ReplyCacheSize(); got != 2 {
			t.Errorf("ReplyCacheSize after return = %d, want 2", got)
		}
	})
}

// TestSweeperFreesUnclaimedTransfer: the reply-cache tick also sweeps the
// SFTP engine. A transfer that arrived whole but was never claimed is
// there to take at first, and gone — its memory with it — once it has
// sat through a full sweep interval.
func TestSweeperFreesUnclaimedTransfer(t *testing.T) {
	w := newWorld(12, netsim.Ethernet.Params())
	w.sim.Run(func() {
		a, z := w.node("a", nil), w.node("z", nil)
		data := make([]byte, 50_000)
		for id := uint64(1); id <= 2; id++ {
			if err := a.Transfer("z", id, data); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := z.AwaitTransfer("a", 1, time.Second); err != nil || len(got) != len(data) {
			t.Fatalf("claiming a finished transfer late: %d bytes, %v", len(got), err)
		}
		w.sim.Sleep(2*replySweepInterval + time.Second)
		if _, err := z.AwaitTransfer("a", 2, time.Second); !errors.Is(err, sftp.ErrAwaitTimeout) {
			t.Errorf("claiming a transfer two sweeps old: %v, want ErrAwaitTimeout", err)
		}
	})
}
