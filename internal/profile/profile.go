// Package profile gives the repository's long-running commands the
// -cpuprofile and -memprofile flags of `go test`, so a slow figure or
// scenario can be profiled where it runs:
//
//	codabench -fig 12 -trials 1 -cpuprofile cpu.pprof
//	go tool pprof -top cpu.pprof
package profile

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile destinations; empty means off.
type Flags struct {
	cpu, mem string
}

// AddFlags registers -cpuprofile and -memprofile on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.mem, "memprofile", "", "write an allocation profile, taken at exit, to this file")
	return f
}

// Start begins the CPU profile, if one was asked for. The returned stop
// ends it and writes the allocation profile; call it once, after the work.
func (f *Flags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if f.cpu != "" {
		if cpuFile, err = os.Create(f.cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			_ = cpuFile.Close() // the profile error is the one to report
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if f.mem == "" {
			return nil
		}
		memFile, err := os.Create(f.mem)
		if err != nil {
			return err
		}
		runtime.GC() // settle the allocation statistics the profile reports
		if err := pprof.Lookup("allocs").WriteTo(memFile, 0); err != nil {
			_ = memFile.Close() // the profile error is the one to report
			return fmt.Errorf("memprofile: %w", err)
		}
		return memFile.Close()
	}, nil
}
