// Command codaclient is an interactive Venus client over real UDP.
//
// Usage:
//
//	codaclient -server host:8701 [-server host:8702 ...] [-mount usr] [-id 1]
//	           [-journal DIR]
//
// Repeating -server names the members of a replicated server group;
// calls fail over between them (give every client the same order).
// With -journal the CML and hoard database live in DIR's write-ahead
// log, flushed every 30 s like RVM (§4.3.1), and survive a restart.
//
// It exposes the file operations plus the weak-connectivity controls as a
// small shell, and implements the paper's two advice screens (Figures 5
// and 6) on the terminal: `misses` reviews deferred cache misses for
// addition to the hoard database, and during hoard walks the data-walk
// approval screen lists each candidate fetch with its priority and
// estimated cost.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/crashfs"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/venus"
	"repro/internal/wal"
)

type serverList []string

func (s *serverList) String() string     { return fmt.Sprint(*s) }
func (s *serverList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var servers serverList
	flag.Var(&servers, "server", "server UDP address (repeat for a replicated group)")
	mount := flag.String("mount", "usr", "volume to mount at startup")
	id := flag.Uint("id", 1, "client id (unique per server)")
	journalDir := flag.String("journal", "", "journal the CML and hoard database in this directory across restarts")
	metrics := flag.String("metrics", "", "serve Prometheus metrics on this HTTP address (e.g. :9702)")
	flag.Parse()
	if len(servers) == 0 {
		servers = serverList{"127.0.0.1:8701"}
	}

	conn, err := netsim.ListenUDP(":0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry(simtime.Real{})
	}
	v := venus.New(simtime.Real{}, conn, venus.Config{
		Servers:       servers,
		ClientID:      uint32(*id),
		ProbeInterval: 30 * time.Second,
		Advisor:       &terminalAdvisor{in: bufio.NewReader(os.Stdin)},
		Obs:           reg,
	})
	if *metrics != "" {
		go func() {
			if err := http.ListenAndServe(*metrics, obs.Handler(reg)); err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
			}
		}()
	}
	if err := v.Mount(*mount); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *journalDir != "" {
		_, err := v.AttachJournal(venus.JournalOptions{FS: crashfs.OS{}, Dir: *journalDir,
			Policy: wal.SyncInterval, Interval: 30 * time.Second})
		if err != nil {
			fmt.Fprintln(os.Stderr, "journal recovery:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("mounted /coda/%s from %s — type 'help'\n", *mount, strings.Join(servers, ","))

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("[%s] coda> ", v.State())
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		args := strings.Fields(line)
		if args[0] == "quit" || args[0] == "exit" {
			break
		}
		runCommand(v, args)
	}
	if *journalDir != "" {
		if err := v.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint:", err)
		}
	}
	v.Close()
	if err := v.CloseJournal(); err != nil {
		fmt.Fprintln(os.Stderr, "close journal:", err)
	}
}

func runCommand(v *venus.Venus, args []string) {
	fail := func(err error) {
		if err != nil {
			fmt.Println("error:", err)
		}
	}
	switch args[0] {
	case "help":
		fmt.Print(`file ops:   ls PATH | cat PATH | write PATH TEXT... | mkdir PATH | rm PATH
            rmdir PATH | mv OLD NEW | ln TARGET PATH | readlink PATH | stat PATH
hoarding:   hoard PATH PRI [children] | unhoard PATH | hdb | walk | misses
network:    disconnect | connect [bps] | writedisc | force | forcetree PATH | bw
            cost PATIENCE_S_PER_MB AGING_MULT | probe
status:     state | cml | cache | conflicts | stats
`)
	case "ls":
		if len(args) < 2 {
			return
		}
		names, err := v.ReadDir(args[1])
		fail(err)
		for _, n := range names {
			fmt.Println(n)
		}
	case "cat":
		if len(args) < 2 {
			return
		}
		data, err := v.ReadFile(args[1])
		fail(err)
		_, _ = os.Stdout.Write(data)
		fmt.Println()
	case "write":
		if len(args) < 3 {
			return
		}
		fail(v.WriteFile(args[1], []byte(strings.Join(args[2:], " ")+"\n")))
	case "mkdir":
		if len(args) < 2 {
			return
		}
		fail(v.Mkdir(args[1]))
	case "rm":
		if len(args) < 2 {
			return
		}
		fail(v.Remove(args[1]))
	case "rmdir":
		if len(args) < 2 {
			return
		}
		fail(v.Rmdir(args[1]))
	case "mv":
		if len(args) < 3 {
			return
		}
		fail(v.Rename(args[1], args[2]))
	case "ln":
		if len(args) < 3 {
			return
		}
		fail(v.Link(args[1], args[2]))
	case "readlink":
		if len(args) < 2 {
			return
		}
		target, err := v.ReadLink(args[1])
		fail(err)
		fmt.Println(target)
	case "stat":
		if len(args) < 2 {
			return
		}
		st, err := v.Stat(args[1])
		fail(err)
		if err == nil {
			fmt.Printf("%s %s %d bytes v%d mode %o links %d\n",
				st.FID, st.Type, st.Length, st.Version, st.Mode, st.Links)
		}
	case "hoard":
		if len(args) < 3 {
			return
		}
		pri, _ := strconv.Atoi(args[2])
		children := len(args) > 3 && args[3] == "children"
		v.HoardAdd(args[1], pri, children)
		fmt.Println("added (fetch deferred to next hoard walk)")
	case "unhoard":
		if len(args) < 2 {
			return
		}
		v.HoardRemove(args[1])
	case "hdb":
		for _, e := range v.HoardList() {
			kids := ""
			if e.Children {
				kids = " +children"
			}
			fmt.Printf("%5d  %s%s\n", e.Priority, e.Path, kids)
		}
	case "walk":
		fail(v.HoardWalk())
	case "misses":
		showMisses(v)
	case "disconnect":
		v.Disconnect()
	case "connect":
		var bw int64
		if len(args) > 1 {
			n, _ := strconv.ParseInt(args[1], 10, 64)
			bw = n
		}
		v.Connect(bw)
	case "writedisc":
		v.WriteDisconnect()
	case "force":
		fail(v.ForceReintegrate())
	case "forcetree":
		if len(args) < 2 {
			return
		}
		fail(v.ForceReintegrateSubtree(args[1]))
	case "cost":
		if len(args) < 3 {
			return
		}
		perMB, _ := strconv.ParseFloat(args[1], 64)
		mult, _ := strconv.ParseFloat(args[2], 64)
		v.SetNetworkCost(venus.NetworkCost{PatienceSecondsPerMB: perMB, AgingMultiplier: mult})
		fmt.Printf("network cost: %.0f patience-s/MB, aging x%.1f\n", perMB, mult)
	case "probe":
		if err := v.Probe(); err != nil {
			fmt.Println("server unreachable:", err)
		} else {
			fmt.Println("server reachable")
		}
	case "bw":
		fmt.Printf("estimated bandwidth: %d b/s\n", v.LinkBandwidth())
	case "state":
		fmt.Println(v.State())
	case "cache":
		cs := v.CacheStats()
		fmt.Printf("Cache Space (KB): Allocated = %d  Occupied = %d  Available = %d  (%d objects)\n",
			cs.AllocatedBytes/1024, cs.OccupiedBytes/1024, cs.Available()/1024, cs.Objects)
	case "cml":
		fmt.Printf("%d records, %d bytes awaiting reintegration; %d bytes saved by optimizations\n",
			v.CMLRecords(), v.CMLBytes(), v.OptimizedBytes())
	case "conflicts":
		for _, c := range v.Conflicts() {
			fmt.Printf("%s %s %s %s: %s\n", c.Time.Format("15:04:05"), c.Volume, c.Kind, c.Path, c.Msg)
		}
	case "stats":
		st := v.Stats()
		fmt.Printf("validations: %d (%d ok, %d objs saved, %d missing stamps, %d object validations)\n",
			st.VolValidations, st.VolValidationsOK, st.ObjsSavedByVolume, st.MissingStamp, st.ObjValidations)
		fmt.Printf("misses: %d transparent, %d deferred, %d disconnected\n",
			st.TransparentFetches, st.DeferredMisses, st.DisconnectedMisses)
		fmt.Printf("reintegration: %d chunks, %d records, %d KB shipped, %d failures\n",
			st.Reintegrations, st.ShippedRecords, st.ShippedBytes/1024, st.ReintegrationFailures)
	default:
		fmt.Println("unknown command; try 'help'")
	}
}

// showMisses is the Figure 5 screen: each deferred miss with its context,
// and the option to add it to the HDB.
func showMisses(v *venus.Venus) {
	misses := v.Misses()
	if len(misses) == 0 {
		fmt.Println("no misses recorded")
		return
	}
	fmt.Println("File/Directory                                     Program    Add to HDB?")
	in := bufio.NewReader(os.Stdin)
	for _, m := range misses {
		fmt.Printf("%-50s %-10s [y/N priority?] ", m.Path, m.Program)
		line, _ := in.ReadString('\n')
		line = strings.TrimSpace(line)
		if line == "" || line == "n" || line == "N" {
			continue
		}
		pri := 600
		fields := strings.Fields(line)
		if len(fields) > 1 {
			if p, err := strconv.Atoi(fields[1]); err == nil {
				pri = p
			}
		}
		v.HoardAdd(m.Path, pri, false)
		fmt.Printf("  hoarded at priority %d (fetch at next walk)\n", pri)
	}
}

// terminalAdvisor is the Figure 6 screen: before the data walk, the user
// can suppress fetches whose cost exceeds their worth.
type terminalAdvisor struct{ in *bufio.Reader }

func (a *terminalAdvisor) ApproveDataWalk(items []venus.WalkItem) []bool {
	fmt.Println("\n--- data walk approval (enter = fetch all, or list indexes to SKIP) ---")
	fmt.Println("  #  Pri    Cost      Size      Object")
	out := make([]bool, len(items))
	for i, it := range items {
		tag := " "
		if it.PreApproved {
			tag = "*" // pre-approved by the patience model
		}
		fmt.Printf("%s%2d  %4d  %7.1fs  %8d  %s\n", tag, i, it.Priority, it.Cost.Seconds(), it.Size, it.Path)
		out[i] = true
	}
	line, _ := a.in.ReadString('\n')
	for _, f := range strings.Fields(line) {
		if idx, err := strconv.Atoi(f); err == nil && idx >= 0 && idx < len(out) {
			out[idx] = false
		}
	}
	return out
}
