package wire

import (
	"bytes"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/simtime"
)

// TestCallFreesFrames: Call frees the reply frame the Node hands it once
// Decode has read it, and not before. PutFragment.Data is the one field
// Decode lends from its input, so a reply of that type shows both: its
// fields decode intact, and its Data reads as the Poison a test binary's
// bufpool.Free leaves.
func TestCallFreesFrames(t *testing.T) {
	t.Run("inline reply", func(t *testing.T) {
		sim := simtime.NewSim(simtime.Epoch1995)
		net := netsim.New(sim, 1)
		net.SetDefaults(netsim.Ethernet.Params())
		want := PutFragment{Transfer: 7, Offset: 512, Total: 4096, Data: bytes.Repeat([]byte("d"), 300)}
		sim.Run(func() {
			server := rpc2.NewNode(sim, net.Host("server"), netmon.NewMonitor(sim), func(string, obs.SpanContext, []byte) ([]byte, error) {
				return EncodeFrame(want)
			}, nil)
			defer server.Close()
			client := rpc2.NewNode(sim, net.Host("client"), netmon.NewMonitor(sim), nil, nil)
			defer client.Close()
			rep, err := Call[PutFragment](client, "server", ConnectClient{}, rpc2.CallOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Transfer != want.Transfer || rep.Offset != want.Offset || rep.Total != want.Total || len(rep.Data) != len(want.Data) {
				t.Fatalf("decoded %d %d %d with %d data bytes, want %d %d %d with %d: the reply was freed before Decode",
					rep.Transfer, rep.Offset, rep.Total, len(rep.Data), want.Transfer, want.Offset, want.Total, len(want.Data))
			}
			if !bytes.Equal(rep.Data, bytes.Repeat([]byte{bufpool.Poison}, len(want.Data))) {
				t.Error("the reply frame was not freed after Decode")
			}
		})
	})
}
