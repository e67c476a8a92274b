package experiments

import (
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/scenario"
)

// TestNoGoroutineLeak is the teardown fence: a world whose daemons stay
// parked on its frozen clock pins its whole heap (the full Figure 12 run
// used to peak at 6.5 GB that way), so every world built through
// internal/world must leave nothing behind. One Figure 12 cell, the
// kill-and-journal-restart experiment, a crash-matrix scenario, then
// every other quick figure and ablation must bring the goroutine count
// back where it started — codaperf's leaked_goroutines == 0, in tier 1.
// This is what fails if a later daemon outlives world.teardownSleep.
func TestNoGoroutineLeak(t *testing.T) {
	src, err := os.ReadFile("../scenario/testdata/scenarios/crash_matrix.scn")
	if err != nil {
		t.Fatal(err)
	}
	insts, err := scenario.ExpandMatrix("crash_matrix", src)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 1, Quick: true}
	before := runtime.NumGoroutine()

	fig12One(1, fig12Run{segment: "Purcell", network: netsim.Modem, combo: Fig12Combos[1]}, 0.25)
	FigureRepl(opts)
	if res, err := scenario.Run(insts[0].Scenario); err != nil || !res.OK() {
		t.Errorf("%s: %v %v", insts[0].Name, err, res.Failures())
	}
	Figure1(opts)
	Figure8(opts)
	Figure9(opts)
	for _, ablation := range []func(Options) AblationResult{AblationAging, AblationLogOptimizations,
		AblationChunkSize, AblationVolumeCallbacks, AblationAdaptiveRTO, AblationDeltas} {
		ablation(opts)
	}

	// Goroutines released by the teardown sleep need a moment of real
	// time to run off the end of their functions.
	for wait := time.Now(); runtime.NumGoroutine() > before && time.Since(wait) < 2*time.Second; {
		runtime.Gosched()
	}
	if leaked := runtime.NumGoroutine() - before; leaked > 0 {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutine(s) leaked:\n%s", leaked, buf[:runtime.Stack(buf, true)])
	}
}
