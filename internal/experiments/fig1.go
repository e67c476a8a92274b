package experiments

import (
	"fmt"
	"time"

	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc2"
	"repro/internal/simtime"
	"repro/internal/tcpsim"
	"repro/internal/world"
)

// wavelanLoss is the modeled radio loss rate of the 1995 WaveLan; it is
// what separates the paper's WaveLan rows (TCP at ~28% of nominal, SFTP at
// ~58%).
const wavelanLoss = 0.03

// Fig1Row is one line of Figure 1: observed throughput for a protocol over
// a network, in each direction. Values in Kb/s, with standard deviations.
type Fig1Row struct {
	Protocol         string
	Network          netsim.Profile
	RecvKbps, RecvSD float64
	SendKbps, SendSD float64
}

// Fig1Result reproduces Figure 1 (Transport Protocol Performance).
type Fig1Result struct {
	ObsSnapshots
	TransferBytes int
	Trials        int
	Rows          []Fig1Row
}

// Figure1 measures disk-to-disk transfer throughput of a 1 MB file between
// a client and server for TCP and SFTP over Ethernet, WaveLan, and a modem
// (Figure 1's setup). "Send" is client→server, "Receive" is server→client.
func Figure1(opts Options) Fig1Result {
	opts.fill()
	size := 1 << 20
	if opts.Quick {
		size = 128 << 10
	}
	res := Fig1Result{TransferBytes: size, Trials: opts.Trials}

	for _, proto := range []string{"TCP", "SFTP"} {
		for _, prof := range []netsim.Profile{netsim.Ethernet, netsim.WaveLan, netsim.Modem} {
			var recv, send []float64
			for trial := 0; trial < opts.Trials; trial++ {
				seed := opts.Seed + int64(trial)
				// Snapshot the transport metrics of one trial per cell;
				// later trials differ only in seed.
				var snaps *ObsSnapshots
				if trial == 0 {
					snaps = &res.ObsSnapshots
				}
				label := proto + "/" + prof.Name
				recv = append(recv, fig1Throughput(proto, prof, size, seed, false, snaps, label+"/recv"))
				send = append(send, fig1Throughput(proto, prof, size, seed+1000, true, snaps, label+"/send"))
			}
			row := Fig1Row{Protocol: proto, Network: prof}
			row.RecvKbps, row.RecvSD = meanStd(recv)
			row.SendKbps, row.SendSD = meanStd(send)
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// fig1Throughput runs one transfer and returns Kb/s. clientSends selects
// the direction; the measurement endpoint mirrors the paper's disk-to-disk
// timing.
func fig1Throughput(proto string, prof netsim.Profile, size int, seed int64, clientSends bool, snaps *ObsSnapshots, label string) float64 {
	w := world.New(seed)
	s, net := w.Sim, w.Net
	var reg *obs.Registry // transport metrics only for the snapshotted trial
	if snaps != nil {
		reg = w.Reg
	}
	params := prof.Params()
	if prof.Name == "WaveLan" {
		// 1995 WaveLan radios lost packets; this is what separates the
		// paper's WaveLan rows (TCP 568/760 vs SFTP 1152/1168 Kb/s):
		// Reno halves its window on every loss, while SFTP's
		// selective-repeat window rides through.
		params.LossRate = wavelanLoss
	}
	net.SetDefaults(params)

	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	src, dst := "server", "client"
	if clientSends {
		src, dst = "client", "server"
	}

	var elapsed time.Duration
	w.Run(func() {
		start := s.Now()
		switch proto {
		case "SFTP":
			a := rpc2.NewNode(s, net.Host(src), netmon.NewMonitor(s), nil, reg)
			defer a.Close()
			b := rpc2.NewNode(s, net.Host(dst), netmon.NewMonitor(s), nil, reg)
			defer b.Close()
			done := simtime.NewQueue[error](s)
			s.Go(func() { done.Put(a.Transfer(dst, 1, data)) })
			if _, err := b.AwaitTransfer(src, 1, 4*time.Hour); err != nil {
				panic(err)
			}
			if err, _ := done.Get(); err != nil {
				panic(err)
			}
		case "TCP":
			a := net.Host(src)
			defer a.Close() // ends Send's ack reader
			b := net.Host(dst)
			defer b.Close()
			done := simtime.NewQueue[error](s)
			s.Go(func() { done.Put(tcpsim.Send(s, a, dst, 1, data)) })
			if _, err := tcpsim.Receive(s, b, 1, 4*time.Hour); err != nil {
				panic(err)
			}
			if err, _ := done.Get(); err != nil {
				panic(err)
			}
		}
		elapsed = s.Now().Sub(start)
		if snaps != nil {
			snaps.addSnapshot(label, reg)
		}
	})
	return float64(size*8) / elapsed.Seconds() / 1000
}

// Render prints the table in the paper's layout.
func (r Fig1Result) Render() string {
	t := newTable(10, 10, 14, 16, 16)
	t.row("Protocol", "Network", "Nominal", "Receive (Kb/s)", "Send (Kb/s)")
	t.line()
	for _, row := range r.Rows {
		t.row(row.Protocol, row.Network.Name, row.Network.SpeedLabel(),
			fmt.Sprintf("%.1f (%.2f)", row.RecvKbps, row.RecvSD),
			fmt.Sprintf("%.1f (%.2f)", row.SendKbps, row.SendSD))
	}
	return fmt.Sprintf("Figure 1: Transport Protocol Performance (%d KB transfer, %d trials)\n%s",
		r.TransferBytes/1024, r.Trials, t.String())
}
