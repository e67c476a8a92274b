package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/codafs"
	"repro/internal/simtime"
	"repro/internal/venus"
)

// Paper's client populations (Figure 9's row labels).
var (
	fig9Desktops = []string{
		"bach", "berlioz", "brahms", "chopin", "copland", "dvorak",
		"gershwin", "gs125", "holst", "ives", "mahler", "messiaen",
		"mozart", "varicose", "verdi", "vivaldi",
	}
	fig9Laptops = []string{
		"caractacus", "deidamia", "finlandia", "gloriana", "guntram",
		"nabucco", "prometheus", "serse", "tosca", "valkyrie",
	}
)

// Fig9Row is one client's observed validation statistics.
type Fig9Row struct {
	Client         string
	MissingPct     float64
	Attempts       int64
	SuccessPct     float64
	ObjsPerSuccess float64
}

// Fig9Result reproduces Figure 9 (Observed Volume Validation Statistics).
type Fig9Result struct {
	ObsSnapshots
	Weeks    int
	Desktops []Fig9Row
	Laptops  []Fig9Row
}

// Figure9 simulates the deployment of §6.1.2: a population of desktop and
// laptop clients sharing volumes over several weeks, with stochastic
// disconnection sessions and cross-client update traffic, recording how
// often volume validation was possible and how often it succeeded.
func Figure9(opts Options) Fig9Result {
	opts.fill()
	weeks := 4
	desktops, laptops := fig9Desktops, fig9Laptops
	volumes := 40
	filesPerVol := 60
	if opts.Quick {
		weeks = 1
		desktops, laptops = desktops[:3], laptops[:2]
		volumes, filesPerVol = 10, 20
	}

	w := newWorld(opts.Seed + 9)
	rng := rand.New(rand.NewSource(opts.Seed + 99))

	// Shared volumes: most quiet, some busy (the mix that yields the
	// paper's ~97% success rates against ~1-hour walk intervals).
	type volInfo struct {
		name  string
		busy  bool
		files int
	}
	vols := make([]volInfo, volumes)
	for i := range vols {
		name := fmt.Sprintf("vol%02d", i)
		w.mustVol(name)
		// Volume sizes vary widely, as the paper's per-client
		// objects-per-success column (5–171) reflects.
		count := 5 + rng.Intn(filesPerVol*3)
		for f := 0; f < count; f++ {
			w.mustWrite(name, fmt.Sprintf("d%d/f%03d", f%3, f), make([]byte, 2048+rng.Intn(8192)))
		}
		vols[i] = volInfo{name: name, busy: rng.Float64() < 0.2, files: count}
	}

	end := weeks * 7 * 24
	duration := time.Duration(end) * time.Hour

	type clientDone struct {
		name  string
		stats venus.Stats
	}
	results := simtime.NewQueue[clientDone](w.Sim)

	runClient := func(name string, id uint32, laptop bool, crng *rand.Rand) {
		// Each client mounts a handful of volumes and hoards their trees.
		mountCount := 3 + crng.Intn(5)
		mounts := crng.Perm(len(vols))[:mountCount]

		v := w.venus(name, venus.Config{
			ClientID:        id,
			CacheBytes:      256 << 20,
			HoardInterval:   time.Hour,
			TrickleInterval: 10 * time.Minute,
		})
		for _, vi := range mounts {
			if err := v.Mount(vols[vi].name); err != nil {
				panic(err)
			}
			v.HoardAdd(codafs.JoinPath(vols[vi].name), 500, true)
		}
		if err := v.HoardWalk(); err != nil {
			panic(fmt.Sprintf("fig9 prefetch walk: %v", err))
		}

		expHours := func(mean float64) time.Duration {
			return time.Duration(crng.ExpFloat64() * mean * float64(time.Hour))
		}
		deadline := w.Sim.Now().Add(duration)
		for w.Sim.Now().Before(deadline) {
			// Connected period.
			w.Sim.Sleep(expHours(2.5))
			if !w.Sim.Now().Before(deadline) {
				break
			}
			// Disconnect: desktops have short outages, laptops travel.
			w.Net.SetUp(name, "server", false)
			v.Disconnect()
			if laptop {
				w.Sim.Sleep(expHours(2.0))
			} else {
				w.Sim.Sleep(expHours(0.7))
			}
			w.Net.SetUp(name, "server", true)
			bw := int64(10_000_000)
			if laptop {
				// Laptops reconnect over whatever is at hand.
				switch crng.Intn(3) {
				case 0:
					bw = 2_000_000
				case 1:
					bw = 64_000
				case 2:
					bw = 10_000_000
				}
			}
			v.Connect(bw)
		}
		results.Put(clientDone{name: name, stats: v.Stats()})
	}

	var res Fig9Result
	res.Weeks = weeks
	w.Run(func() {
		// Cross-client update traffic, server-side.
		for _, vi := range vols {
			vi := vi
			urng := rand.New(rand.NewSource(opts.Seed + int64(len(vi.name))*31 + int64(vi.name[3])))
			w.Sim.Go(func() {
				deadline := w.Sim.Now().Add(duration)
				for {
					meanH := 240.0 // quiet: ~10 days between updates
					if vi.busy {
						meanH = 12.0
					}
					// An update due past the deadline never happens: sleep no
					// further, so the updater ends with the run.
					next := time.Duration(urng.ExpFloat64() * meanH * float64(time.Hour))
					w.Sim.Sleep(min(next, deadline.Sub(w.Sim.Now())))
					if !w.Sim.Now().Before(deadline) {
						return
					}
					f := urng.Intn(vi.files)
					w.mustWrite(vi.name, fmt.Sprintf("d%d/f%03d", f%3, f), make([]byte, 2048+urng.Intn(8192)))
				}
			})
		}

		id := uint32(1)
		for _, name := range desktops {
			name := name
			cid := id
			crng := rand.New(rand.NewSource(opts.Seed + int64(cid)*101))
			id++
			w.Sim.Go(func() { runClient(name, cid, false, crng) })
		}
		for _, name := range laptops {
			name := name
			cid := id
			crng := rand.New(rand.NewSource(opts.Seed + int64(cid)*101))
			id++
			w.Sim.Go(func() { runClient(name, cid, true, crng) })
		}

		byName := make(map[string]venus.Stats)
		for i := 0; i < len(desktops)+len(laptops); i++ {
			done, _ := results.Get()
			byName[done.name] = done.stats
		}
		for _, name := range desktops {
			res.Desktops = append(res.Desktops, fig9Row(name, byName[name]))
		}
		for _, name := range laptops {
			res.Laptops = append(res.Laptops, fig9Row(name, byName[name]))
		}
		res.addSnapshot("deployment", w.Reg)
	})
	return res
}

func fig9Row(name string, st venus.Stats) Fig9Row {
	row := Fig9Row{Client: name, Attempts: st.VolValidations}
	total := st.VolValidations + st.MissingStamp
	if total > 0 {
		row.MissingPct = 100 * float64(st.MissingStamp) / float64(total)
	}
	if st.VolValidations > 0 {
		row.SuccessPct = 100 * float64(st.VolValidationsOK) / float64(st.VolValidations)
	}
	if st.VolValidationsOK > 0 {
		row.ObjsPerSuccess = float64(st.ObjsSavedByVolume) / float64(st.VolValidationsOK)
	}
	return row
}

// Render prints the two tables with group means, as in the paper.
func (r Fig9Result) Render() string {
	render := func(title string, rows []Fig9Row) string {
		t := newTable(12, 14, 12, 12, 14)
		t.row("Client", "MissingStamp", "Attempts", "Success", "Objs/Success")
		t.line()
		var mMiss, mAtt, mSucc, mObjs float64
		for _, row := range rows {
			t.row(row.Client,
				fmt.Sprintf("%.0f%%", row.MissingPct),
				fmt.Sprintf("%d", row.Attempts),
				fmt.Sprintf("%.0f%%", row.SuccessPct),
				fmt.Sprintf("%.0f", row.ObjsPerSuccess))
			mMiss += row.MissingPct
			mAtt += float64(row.Attempts)
			mSucc += row.SuccessPct
			mObjs += row.ObjsPerSuccess
		}
		n := float64(len(rows))
		t.line()
		t.row("Mean",
			fmt.Sprintf("%.0f%%", mMiss/n),
			fmt.Sprintf("%.0f", mAtt/n),
			fmt.Sprintf("%.0f%%", mSucc/n),
			fmt.Sprintf("%.0f", mObjs/n))
		return title + "\n" + t.String()
	}
	out := fmt.Sprintf("Figure 9: Observed Volume Validation Statistics (%d weeks)\n", r.Weeks)
	out += render("(a) Desktops", r.Desktops)
	out += render("(b) Laptops", r.Laptops)
	return out
}
