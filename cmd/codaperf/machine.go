package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
)

// The reference machine is a 2-vCPU VM on a shared host, and what it gives
// a process changes from minute to minute in two ways that have nothing to
// do with the program under test:
//
//   - the hypervisor takes the CPUs away in bursts (steal), which doubles
//     the wall time of the iterations a burst hits;
//   - the speed of the CPUs themselves drifts by 20-30 % over tens of
//     minutes (neighbours on the sibling hyperthreads, frequency).
//
// Left in, the two put the medians of ten identical 25 s runs up to 90 %
// apart. Both can be measured, so timed values are corrected for both:
// steal is subtracted, and what is left is scaled by how fast a fixed piece
// of reference work ran right next to the measured phase. README.md,
// "Steal and machine speed", has the evidence.

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// stolenTime is how long the hypervisor has kept this machine's CPUs from
// it so far: the steal column of /proc/stat, all CPUs, in 10 ms ticks (0
// where there is no such file).
func stolenTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var user, nice, sys, idle, iowait, irq, softirq, steal int64
	if _, err := fmt.Sscanf(string(b), "cpu %d %d %d %d %d %d %d %d", &user, &nice, &sys, &idle, &iowait, &irq, &softirq, &steal); err != nil {
		return 0
	}
	return time.Duration(steal) * 10 * time.Millisecond
}

// lessSteal is wall time d less the steal suffered during it, floored at
// a tenth of d so a misreported tick count cannot produce a zero divisor.
func lessSteal(d, stolen time.Duration) time.Duration {
	if d-stolen < d/10 {
		return d / 10
	}
	return d - stolen
}

// refNominal is how long refWork takes on the reference machine in its
// usual state. It only fixes the scale: a corrected second is a second of
// a machine on which refWork takes exactly this long.
const refNominal = 9 * time.Millisecond

var (
	refSrc  = make([]byte, 4<<20)
	refDst  = make([]byte, 4<<20)
	refSink int
)

// refWork does a fixed amount of work shaped like the workloads' own —
// memory traffic, map updates, small allocations, goroutine hand-offs —
// that touches no package of the program, and returns how long it took.
// A change to the program cannot move it; a change in what the machine
// gives the process moves it and the measured phase alike.
func refWork() time.Duration {
	t0 := time.Now()
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			copy(refDst, refSrc)
			refSrc[i] = byte(round)
		}
		m := make(map[int]int)
		for i := 0; i < 20000; i++ {
			m[i*7919%10007] += i
			if i%16 == 0 {
				refSink += len(make([]byte, 1024))
			}
		}
		refSink += len(m)
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	for i := 0; i < 9000; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong
	return time.Since(t0)
}
