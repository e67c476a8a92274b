package venus

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/codafs"
	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// TestValidateVolumesWireOrder decodes each ValidateVolumes request as it
// arrives at bare rpc2 nodes standing in for a three-member group: one
// batch per member, in member order, each listing its volumes by name.
// The batches and their entries are gathered from Venus's volume map, so
// unsorted they would go in map order, which changes only which member
// is asked first and the order of equal-sized lists: no dump sees it.
// Ten rounds make an unsorted order that happens to come out sorted
// vanishingly unlikely.
func TestValidateVolumesWireOrder(t *testing.T) {
	sim := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(sim, 1)
	net.SetDefaults(netsim.Ethernet.Params())
	members := []string{"m0", "m1", "m2"}
	// Volume ID i (member i%3 by defaultPref) is named against ID order.
	const vols = 9
	name := func(id int) string { return fmt.Sprintf("vol%d", vols+1-id) }
	ids := make(map[string]codafs.VolumeID)
	for id := 1; id <= vols; id++ {
		ids[name(id)] = codafs.VolumeID(id)
	}
	root := func(id codafs.VolumeID) codafs.FID { return codafs.FID{Volume: id, Vnode: 1, Unique: 1} }
	var got []string // "member: ids", as the requests arrive
	sim.Run(func() {
		for _, m := range members {
			node := rpc2.NewNode(sim, net.Host(m), netmon.NewMonitor(sim), func(_ string, _ obs.SpanContext, body []byte) ([]byte, error) {
				req, err := wire.Decode(body)
				if err != nil {
					return nil, err
				}
				switch req := req.(type) {
				case wire.GetVolume:
					id := ids[req.Name]
					return wire.Encode(wire.GetVolumeRep{Info: codafs.VolumeInfo{ID: id, Name: req.Name, Stamp: 1},
						Root: codafs.Status{FID: root(id), Type: codafs.Directory}})
				case wire.Fetch:
					return wire.Encode(wire.FetchRep{Object: codafs.Object{Status: codafs.Status{FID: req.FID, Type: codafs.Directory},
						Children: map[string]codafs.FID{}}})
				case wire.ValidateVolumes:
					var listed []codafs.VolumeID
					rep := wire.ValidateVolumesRep{}
					for _, p := range req.Volumes {
						listed = append(listed, p.ID)
						rep.Valid, rep.Stamps = append(rep.Valid, true), append(rep.Stamps, p.Stamp)
					}
					got = append(got, fmt.Sprint(m, ": ", listed))
					return wire.Encode(rep)
				}
				return nil, fmt.Errorf("unexpected %T", req)
			}, nil)
			defer node.Close()
		}
		v := New(sim, net.Host("client"), Config{Servers: members})
		defer v.Close()
		for n := range ids {
			if err := v.Mount(n); err != nil {
				t.Fatal(err)
			}
		}
		// Every volume holds a stamp, as after a hoard walk.
		v.mu.Lock()
		for _, vc := range v.volumes {
			vc.stamp, vc.hasStamp = 1, true
		}
		v.mu.Unlock()

		var want []string
		for pref, m := range members {
			var byName []string
			for n, id := range ids {
				if v.defaultPref(uint64(id)) == pref {
					byName = append(byName, n)
				}
			}
			slices.Sort(byName)
			var listed []codafs.VolumeID
			for _, n := range byName {
				listed = append(listed, ids[n])
			}
			want = append(want, fmt.Sprint(m, ": ", listed))
		}
		for round := 0; round < 10; round++ {
			got = nil
			v.validateOnReconnect()
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: ValidateVolumes went out as %q, want %q", round, got, want)
			}
		}
	})
}
