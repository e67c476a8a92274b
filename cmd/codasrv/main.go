// Command codasrv runs a Coda file server over real UDP.
//
// Usage:
//
//	codasrv [-listen :8701] [-vol usr -vol proj ...] [-seed-files N]
//	        [-journal DIR] [-peer host:8702 -peer host:8703 ...]
//
// The server exports the named volumes (default "usr"), optionally
// pre-populated with N small files each, and serves codaclient instances
// until interrupted. With -journal every applied update is in DIR's
// write-ahead log, fsynced, before it is acknowledged, and a restart —
// after a clean exit or a kill — recovers them all. With -peer flags it
// runs as one member of a replicated group (every member must list every
// other one): an update it accepts is shipped once to each peer, which do
// not relay it, and at boot it pulls what it missed from a reachable peer.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"

	"repro/internal/crashfs"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/wal"
)

type volList []string

func (v *volList) String() string     { return fmt.Sprint(*v) }
func (v *volList) Set(s string) error { *v = append(*v, s); return nil }

func main() {
	listen := flag.String("listen", ":8701", "UDP address to listen on")
	seedFiles := flag.Int("seed-files", 0, "pre-populate each volume with N files")
	journalDir := flag.String("journal", "", "journal volumes in this directory (recover at boot, fsync every update)")
	metrics := flag.String("metrics", "", "serve Prometheus metrics on this HTTP address (e.g. :9701)")
	var vols volList
	flag.Var(&vols, "vol", "volume to export (repeatable; default usr)")
	var peers volList
	flag.Var(&peers, "peer", "replica group peer address (repeatable; list every other member)")
	flag.Parse()
	if len(vols) == 0 {
		vols = volList{"usr"}
	}

	conn, err := netsim.ListenUDP(*listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry(simtime.Real{})
	}
	srv := server.New(simtime.Real{}, conn, server.WithObs(reg), server.WithPeers(peers...))
	if *metrics != "" {
		go func() {
			log.Printf("metrics on http://%s/metrics", *metrics)
			if err := http.ListenAndServe(*metrics, obs.Handler(reg)); err != nil {
				log.Printf("metrics: %v", err)
			}
		}()
	}
	if *journalDir != "" {
		info, err := srv.AttachJournal(server.JournalOptions{FS: crashfs.OS{}, Dir: *journalDir, Policy: wal.SyncEachRecord})
		if err != nil {
			log.Fatalf("journal recovery: %v", err)
		}
		log.Printf("journal %s: snapshot %v, %d batches replayed",
			*journalDir, info.SnapshotLoaded, info.BatchesReplayed)
	}
	// checkpoint folds the state into the journal's snapshot: after
	// seeding, which bypasses the journal, and at clean shutdown.
	checkpoint := func() {
		if *journalDir == "" {
			return
		}
		if err := srv.Checkpoint(); err != nil {
			log.Printf("checkpoint: %v", err)
		}
	}
	for _, vol := range vols {
		if _, err := srv.CreateVolume(vol); err != nil {
			log.Printf("volume %s: %v (continuing)", vol, err)
			continue
		}
		for i := 0; i < *seedFiles; i++ {
			rel := fmt.Sprintf("seed/file%03d.txt", i)
			data := []byte(fmt.Sprintf("seed file %d of volume %s\n", i, vol))
			if _, err := srv.WriteFile(vol, rel, data); err != nil {
				log.Fatalf("seed %s/%s: %v", vol, rel, err)
			}
		}
		log.Printf("exporting volume %q", vol)
	}
	checkpoint()
	// Rejoin the group: pull whatever suffix the peers committed while
	// this member was down. Unreachable peers are not fatal — catch-up
	// also happens lazily when the first gap is detected.
	for _, p := range peers {
		if err := srv.CatchUp(p); err != nil {
			log.Printf("catch-up from %s: %v", p, err)
			continue
		}
		log.Printf("caught up from %s", p)
		break
	}
	log.Printf("codasrv listening on %s", conn.LocalAddr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	st := srv.Stats()
	log.Printf("shutting down: %d calls, %d reintegrations (%d failed), %d records applied, %d conflicts, %d breaks sent",
		st.Calls, st.Reintegrations, st.ReintegrationFails, st.RecordsApplied, st.Conflicts, st.BreaksSent)
	checkpoint()
	srv.Close()
	if err := srv.CloseJournal(); err != nil {
		log.Printf("close journal: %v", err)
	}
}
