package experiments

import (
	"fmt"
	"time"

	"repro/internal/codafs"
	"repro/internal/netsim"
	"repro/internal/venus"
)

// Fig8Profile describes one user's cache composition (the paper used the
// hoard profiles of five typical Coda users).
type Fig8Profile struct {
	User    string
	Volumes int
	Objects int
	MeanKB  float64
}

// fig8Profiles approximates five users with caches from ~700 to ~4000
// objects spread over 5–30 volumes.
var fig8Profiles = []Fig8Profile{
	{"user1", 10, 2000, 8},
	{"user2", 5, 700, 6},
	{"user3", 20, 3000, 10},
	{"user4", 30, 4000, 7},
	{"user5", 8, 1400, 12},
}

// localWalkPerObject models Venus's local cost of walking one cache entry
// during validation (the CPU component that dominated the paper's absolute
// numbers; the emulator itself charges only network time).
const localWalkPerObject = time.Millisecond

// Fig8Cell is one bar of Figure 8.
type Fig8Cell struct {
	User    string
	Network netsim.Profile
	Scheme  string // "object" or "volume"
	Seconds float64
}

// Fig8Result reproduces Figure 8 (Validation Time Under Ideal Conditions).
type Fig8Result struct {
	ObsSnapshots
	Profiles []Fig8Profile
	Cells    []Fig8Cell
}

// Figure8 measures cache validation time after reconnection under ideal
// conditions (volume stamps held, no server updates while disconnected),
// comparing per-object validation against volume-stamp validation at each
// network speed.
func Figure8(opts Options) Fig8Result {
	opts.fill()
	profiles := fig8Profiles
	if opts.Quick {
		profiles = []Fig8Profile{
			{"user1", 4, 200, 8},
			{"user2", 2, 80, 6},
		}
	}
	res := Fig8Result{Profiles: profiles}
	for _, prof := range profiles {
		for _, scheme := range []string{"object", "volume"} {
			cells, snap := fig8Run(opts, prof, scheme)
			res.Cells = append(res.Cells, cells...)
			res.Snapshots = append(res.Snapshots, snap)
		}
	}
	return res
}

func fig8Run(opts Options, prof Fig8Profile, scheme string) ([]Fig8Cell, RegistrySnapshot) {
	w := newWorld(opts.Seed + int64(len(prof.User)))
	perVol := prof.Objects / prof.Volumes

	for vi := 0; vi < prof.Volumes; vi++ {
		vol := fmt.Sprintf("%s-v%02d", prof.User, vi)
		w.mustVol(vol)
		for fi := 0; fi < perVol; fi++ {
			size := int(prof.MeanKB * 1024 / 2)
			if fi%2 == 0 {
				size *= 3
			}
			w.mustWrite(vol, fmt.Sprintf("d%d/f%03d", fi%4, fi), make([]byte, size))
		}
	}

	var cells []Fig8Cell
	var snap RegistrySnapshot
	w.Run(func() {
		v := w.venus("client", venus.Config{
			ClientID:               1,
			CacheBytes:             1 << 30,
			DisableVolumeCallbacks: scheme == "object",
		})
		for vi := 0; vi < prof.Volumes; vi++ {
			vol := fmt.Sprintf("%s-v%02d", prof.User, vi)
			if err := v.Mount(vol); err != nil {
				panic(err)
			}
			v.HoardAdd(codafs.JoinPath(vol), 600, true)
		}
		if err := v.HoardWalk(); err != nil {
			panic(err)
		}

		for _, net := range netsim.StandardNetworks {
			// Ideal conditions: nothing changes while disconnected.
			w.Net.SetUp("client", "server", false)
			v.Disconnect()
			w.setLink("client", net)

			start := w.Sim.Now()
			v.Connect(net.Bandwidth)
			if scheme == "object" {
				// The original scheme: every cached object validated
				// individually (batched RPCs) at the walk.
				if err := v.HoardWalk(); err != nil {
					panic(err)
				}
			}
			elapsed := w.Sim.Now().Sub(start)
			elapsed += time.Duration(prof.Objects) * localWalkPerObject
			cells = append(cells, Fig8Cell{
				User: prof.User, Network: net, Scheme: scheme,
				Seconds: seconds(elapsed),
			})
		}
		snap = snapshot(prof.User+"/"+scheme, w.Reg)
	})
	return cells, snap
}

// Render prints validation times, grouped as in the paper's bar chart.
func (r Fig8Result) Render() string {
	t := newTable(8, 10, 12, 12, 12, 12)
	t.row("User", "Scheme", "E (10Mb/s)", "W (2Mb/s)", "I (64Kb/s)", "M (9.6Kb/s)")
	t.line()
	for _, prof := range r.Profiles {
		for _, scheme := range []string{"object", "volume"} {
			row := []string{prof.User, scheme}
			for _, net := range []string{"Ethernet", "WaveLan", "ISDN", "Modem"} {
				for _, c := range r.Cells {
					if c.User == prof.User && c.Scheme == scheme && c.Network.Name == net {
						row = append(row, fmt.Sprintf("%.1fs", c.Seconds))
					}
				}
			}
			t.row(row...)
		}
	}
	return "Figure 8: Validation Time Under Ideal Conditions\n" + t.String()
}
