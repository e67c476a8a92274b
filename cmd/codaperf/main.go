// Command codaperf is the repository's benchmark. It builds complete
// simulated deployments from the public constructors, runs four
// closed-loop workloads with tracing off for the end-to-end numbers, then
// isolated per-layer probes and a traced pass for the per-layer numbers,
// checks the outputs of every iteration, and prints every metric by name
// with its unit. See README.md in this directory.
//
//	go run ./cmd/codaperf                                   # everything
//	go run ./cmd/codaperf -workload fetch_cold_isdn -trace 0  # one contract run
//	go run ./cmd/codaperf -aa                               # two sets must agree
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Exit codes.
const (
	exitOK     = 0
	exitFailed = 1 // a check failed, an op failed, -aa disagreed
	exitUsage  = 2
	exitHang   = 3 // the watchdog fired
)

var processStart = time.Now()

type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Iters    int
	Scale    float64
	Out      string
}

var (
	flagWorkload = flag.String("workload", "", "run only this workload (default: all four)")
	flagSeed     = flag.Int64("seed", 1, "seed every world is generated from")
	flagSeconds  = flag.Float64("seconds", 25, "wall seconds of iterations per workload in the end-to-end pass")
	flagIters    = flag.Int("iters", 0, "run exactly this many end-to-end iterations instead of filling -seconds")
	flagScale    = flag.Float64("scale", 1, "scale every workload's size (the reference numbers are at 1)")
	flagTrace    = flag.Int("trace", -1, "contract mode for one -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON line")
	flagTraced   = flag.Bool("traced", true, "run the traced pass")
	flagProbes   = flag.Bool("probes", true, "run the per-layer probes")
	flagAA       = flag.Bool("aa", false, "run the end-to-end pass twice in fresh processes and fail if the two sets disagree")
	flagJSON     = flag.String("json", "", "also write every result to this file as JSON")
	flagOut      = flag.String("out", filepath.Join(".bench_build", "codaperf"), "directory for the trace files of the traced pass")
	flagChild    = flag.String("child", "", "internal: run one pass (e2e, traced, probes) in this process and print its result as JSON")
)

func main() {
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "codaperf: unexpected argument %q\n", flag.Arg(0))
		os.Exit(exitUsage)
	}
	cfg := config{Workload: *flagWorkload, Seed: *flagSeed, Seconds: *flagSeconds, Iters: *flagIters, Scale: *flagScale, Out: *flagOut}
	if cfg.Workload != "" && workloadByName(cfg.Workload) == nil {
		fmt.Fprintf(os.Stderr, "codaperf: unknown workload %q; have %s\n", cfg.Workload, strings.Join(workloadNames(), ", "))
		os.Exit(exitUsage)
	}
	if cfg.Scale <= 0 || cfg.Seconds <= 0 || cfg.Iters < 0 {
		fmt.Fprintln(os.Stderr, "codaperf: -scale and -seconds must be positive, -iters not negative")
		os.Exit(exitUsage)
	}
	switch {
	case *flagChild != "":
		os.Exit(childMain(*flagChild, cfg))
	case *flagAA:
		os.Exit(runAA(cfg))
	case *flagTrace >= 0:
		os.Exit(runContract(cfg, *flagTrace))
	default:
		os.Exit(runFull(cfg))
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

func selected(cfg config) []*workload {
	if cfg.Workload != "" {
		return []*workload{workloadByName(cfg.Workload)}
	}
	return workloads
}

// ---- child side: one pass, in this process ----

// passResult is what one pass of one workload produced.
type passResult struct {
	Workload  string               `json:"workload,omitempty"`
	Pass      string               `json:"pass"`
	Iters     int                  `json:"iters"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Metrics   map[string]float64   `json:"metrics"`
	Quartiles map[string]quartiles `json:"quartiles,omitempty"`
	// Measured phase of each end-to-end iteration, in run order: raw wall
	// time, the part of it the hypervisor stole, and the machine's speed
	// around it (1 = the reference machine as usual).
	IterWallMS  []float64 `json:"iter_wall_ms,omitempty"`
	IterStealMS []float64 `json:"iter_steal_ms,omitempty"`
	IterSpeed   []float64 `json:"iter_speed,omitempty"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	NumCPU      int       `json:"nproc"`
	GoVersion   string    `json:"go"`
	Spans       []span    `json:"spans,omitempty"`
	SimTrace    []byte    `json:"sim_trace,omitempty"`
}

func newPassResult(pass, workload string) *passResult {
	return &passResult{
		Workload: workload, Pass: pass,
		Metrics: make(map[string]float64), Quartiles: make(map[string]quartiles),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
}

// setProcs applies the load shape's GOMAXPROCS = min(nproc, 4).
func setProcs() {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	runtime.GOMAXPROCS(n)
}

func childMain(pass string, cfg config) int {
	setProcs()
	var res *passResult
	switch pass {
	case "e2e":
		res = endToEndPass(workloadByName(cfg.Workload), cfg)
	case "traced":
		res = tracedPass(workloadByName(cfg.Workload), cfg, tracedIters)
	case "probes":
		res = newPassResult("probes", "")
		watchdog := startWatchdog("the per-layer probes")
		res.Metrics = runProbes(21)
		watchdog.Stop()
	default:
		fmt.Fprintf(os.Stderr, "codaperf: unknown pass %q\n", pass)
		return exitUsage
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "codaperf: write result: %v\n", err)
		return exitFailed
	}
	return exitOK
}

// newIter is iteration id of a pass. Every iteration is given the same
// seed: the spread across iterations is machine noise only.
func newIter(id int, cfg config, rec *recorder) *iter {
	return &iter{id: id, seed: cfg.Seed, scale: cfg.Scale, traced: rec != nil, rec: rec}
}

// tally folds one iteration's op counts and check failures into res. A
// failed output check fails every op of its iteration.
func (res *passResult) tally(it *iter) {
	res.Iters++
	res.Attempted += it.ops
	if it.checkFailed {
		res.Failed += it.ops
	} else {
		res.Failed += it.failed
	}
	for _, e := range it.errs {
		if len(res.Errors) < 16 {
			res.Errors = append(res.Errors, fmt.Sprintf("iteration %d: %s", it.id, e))
		}
	}
}

// perIter are the end-to-end values one iteration yields.
func perIter(it *iter) map[string]float64 {
	ops := float64(it.ops)
	return map[string]float64{
		"ops_per_s":                ops / it.busy(),
		"cpu_ms_per_kop":           it.corrected(it.cpu) * 1000 / (ops / 1000),
		"allocs_per_op":            float64(it.mallocs) / ops,
		"alloc_kb_per_op":          float64(it.allocated) / 1024 / ops,
		"sim_s":                    it.simDur.Seconds(),
		"wire_bytes_per_user_byte": float64(it.wire.BytesSent) / float64(it.userBytes),
		"setup_s":                  it.setup(),
	}
}

// endToEndPass runs wl with tracing off: one discarded warm-up iteration,
// then iterations until -seconds of wall time are used (or exactly -iters
// of them). A timed value is the median over iterations.
func endToEndPass(wl *workload, cfg config) *passResult {
	res := newPassResult("e2e", wl.name)
	startup := time.Since(processStart)
	runIter(wl, newIter(0, cfg, nil)) // warm-up: page in, grow the heap, fill pools

	series := make(map[string][]float64)
	var walls []float64
	start := time.Now()
	for id := 1; ; id++ {
		if cfg.Iters > 0 && id > cfg.Iters {
			break
		}
		if cfg.Iters == 0 && time.Since(start).Seconds() >= cfg.Seconds && id > minIters {
			break
		}
		it := newIter(id, cfg, nil)
		runIter(wl, it)
		res.tally(it)
		if it.ops == 0 || it.wall <= 0 {
			res.Errors = append(res.Errors, fmt.Sprintf("iteration %d: no measured ops", id))
			res.Failed++
			continue
		}
		for name, v := range perIter(it) {
			series[name] = append(series[name], v)
		}
		walls = append(walls, it.wall.Seconds()*1000)
		res.IterStealMS = append(res.IterStealMS, it.steal.Seconds()*1000)
		res.IterSpeed = append(res.IterSpeed, it.speed())
		res.Metrics["codaperf.leaked_goroutines"] += float64(it.leaked)
	}
	for name, xs := range series {
		res.Metrics[name] = median(xs)
		res.Quartiles[name] = quartilesOf(xs)
	}
	// Start-up is paid once per process, the median iteration's set-up
	// every time a world is built; work moved to either place shows here.
	res.Metrics["setup_s"] += startup.Seconds()
	q := res.Quartiles["setup_s"]
	for i := range q {
		q[i] += startup.Seconds()
	}
	res.Quartiles["setup_s"] = q
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	res.IterWallMS = walls
	res.wallStats(walls)
	return res
}

// wallStats records how many iterations a pass measured and how steady
// their raw wall times were.
func (res *passResult) wallStats(walls []float64) {
	q := quartilesOf(walls)
	res.Metrics["codaperf.iters"] = float64(len(walls))
	res.Metrics["codaperf.iter_wall_ms_p50"] = q[1]
	res.Metrics["codaperf.iter_wall_ms_p75"] = q[2]
	if q[1] > 0 {
		res.Metrics["codaperf.wall_iqr_pct"] = 100 * (q[2] - q[0]) / q[1]
	}
}

// minIters is the fewest end-to-end iterations a time-boxed pass runs,
// however slow the machine.
const minIters = 5

// tracedIters is how many traced (and, interleaved, how many untraced
// reference) iterations the traced pass runs.
const tracedIters = 5

// tracedPass runs wl with one obs.Registry threaded through the world and
// codaperf's own spans recording, alternating with untraced iterations in
// the same process so the cost of watching is a like-for-like ratio.
func tracedPass(wl *workload, cfg config, iters int) *passResult {
	res := newPassResult("traced", wl.name)
	rec := newRecorder(wl.name)
	runIter(wl, newIter(0, cfg, nil))

	series := make(map[string][]float64)
	var plain, traced, walls []float64
	for id := 1; id <= iters; id++ {
		u := newIter(-id, cfg, nil)
		runIter(wl, u)
		res.tally(u)
		plain = append(plain, float64(u.ops)/u.busy())

		it := newIter(id, cfg, rec)
		runIter(wl, it)
		res.tally(it)
		traced = append(traced, float64(it.ops)/it.busy())
		walls = append(walls, it.wall.Seconds()*1000)
		m, err := tracedIterMetrics(it)
		if err != nil {
			res.Errors = append(res.Errors, err.Error())
			res.Failed++
			continue
		}
		for name, v := range m {
			series[name] = append(series[name], v)
		}
		res.Metrics["codaperf.leaked_goroutines"] += float64(it.leaked + u.leaked)
		if res.SimTrace == nil {
			res.SimTrace = it.simTrace
		}
	}
	for name, xs := range series {
		res.Metrics[name] = median(xs)
	}
	res.Metrics["obs.trace_overhead_pct"] = 100 * (1 - median(traced)/median(plain))
	res.wallStats(walls)
	res.Spans = rec.spans
	return res
}

// ---- parent side: one process per pass ----

// errHang reports that a child's watchdog fired.
var errHang = errors.New("watchdog fired: the pass hung (stacks above)")

// failed prints why a pass could not be run and picks the exit code.
func failed(err error) int {
	fmt.Fprintf(os.Stderr, "codaperf: %v\n", err)
	if errors.Is(err, errHang) {
		return exitHang
	}
	return exitFailed
}

// spawn re-executes this binary as a child running one pass, so that
// ru_maxrss, GC state and a hang are isolated per workload. The child's
// stderr (progress, watchdog stack dumps) passes through.
func spawn(pass string, cfg config) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	// The child's own watchdog bounds every iteration; this outer limit
	// only catches a child that cannot even report.
	limit := time.Duration(cfg.Seconds*float64(time.Second)) + time.Duration(cfg.Iters+2)*iterDeadline
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-child", pass, "-workload", cfg.Workload,
		"-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Seconds),
		"-iters", fmt.Sprint(cfg.Iters), "-scale", fmt.Sprint(cfg.Scale))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() == exitHang {
			return nil, fmt.Errorf("%s pass of %s: %w", pass, cfg.Workload, errHang)
		}
		return nil, fmt.Errorf("%s pass of %s: %w", pass, cfg.Workload, err)
	}
	res := new(passResult)
	if err := json.Unmarshal(out, res); err != nil {
		return nil, fmt.Errorf("%s pass of %s: parse result: %w", pass, cfg.Workload, err)
	}
	return res, nil
}

func (res *passResult) correct() bool { return res.Failed == 0 && len(res.Errors) == 0 }

// report prints the errors of a pass; it returns whether there were any.
func (res *passResult) report() bool {
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "codaperf: %s: %s\n", res.Workload, e)
	}
	if !res.correct() {
		fmt.Fprintf(os.Stderr, "codaperf: %s: FAILED: %d of %d ops failed\n", res.Workload, res.Failed, res.Attempted)
	}
	return !res.correct()
}

func printMetrics(title string, defs []metricDef, m map[string]float64) {
	fmt.Printf("%s\n", title)
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-34s %16.6g %-8s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
}

// contractLine is the last line of standard output in contract mode.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContractLine(res *passResult, defs []metricDef) error {
	line := contractLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]contractValue, len(defs))}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = contractValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Printf("%s\n", b)
	return nil
}

// runContract is one driver run: one workload, end-to-end metrics with
// -trace 0, per-layer metrics with -trace 1, result as the last line.
func runContract(cfg config, trace int) int {
	if cfg.Workload == "" || trace > 1 {
		fmt.Fprintln(os.Stderr, "codaperf: -trace takes 0 or 1 and needs -workload")
		return exitUsage
	}
	pass, defs := "e2e", endToEnd
	if trace == 1 {
		pass, defs = "traced", perLayer()
	}
	res, err := spawn(pass, cfg)
	if err != nil {
		return failed(err)
	}
	title := fmt.Sprintf("%s: end to end, %d iterations, seed %d, GOMAXPROCS %d", res.Workload, res.Iters, cfg.Seed, res.GOMAXPROCS)
	if trace == 1 {
		probes, err := spawn("probes", cfg)
		if err != nil {
			return failed(err)
		}
		for name, v := range probes.Metrics {
			res.Metrics[name] = v
		}
		if err := writeTraces(cfg.Out, []*passResult{res}); err != nil {
			return failed(err)
		}
		title = fmt.Sprintf("%s: per layer, seed %d, GOMAXPROCS %d (traces in %s)", res.Workload, cfg.Seed, res.GOMAXPROCS, cfg.Out)
	}
	bad := res.report()
	printMetrics(title, defs, res.Metrics)
	if err := printContractLine(res, defs); err != nil {
		return failed(err)
	}
	if bad {
		return exitFailed
	}
	return exitOK
}

// writeTraces writes codaperf.trace.json (the harness's own wall-clock
// spans, all workloads) and one deterministic sim-time trace per workload.
func writeTraces(dir string, traced []*passResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace directory: %w", err)
	}
	var spans []span
	for _, res := range traced {
		spans = append(spans, res.Spans...)
		path := filepath.Join(dir, res.Workload+".simtrace.json")
		if err := os.WriteFile(path, res.SimTrace, 0o644); err != nil {
			return fmt.Errorf("write sim-time trace: %w", err)
		}
	}
	b, err := chromeTrace(spans)
	if err != nil {
		return fmt.Errorf("encode codaperf.trace.json: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "codaperf.trace.json"), b, 0o644); err != nil {
		return fmt.Errorf("write codaperf.trace.json: %w", err)
	}
	return nil
}

// runFull is the default mode: every selected workload end to end, then
// traced, then the probes; tables on stdout, everything in -json.
func runFull(cfg config) int {
	code := exitOK
	var all, traced []*passResult
	for _, wl := range selected(cfg) {
		c := cfg
		c.Workload = wl.name
		fmt.Printf("== %s (%d client(s)): %s\n", wl.name, wl.clients, wl.why)
		res, err := spawn("e2e", c)
		if err != nil {
			return failed(err)
		}
		if res.report() {
			code = exitFailed
		}
		all = append(all, res)
		printMetrics(fmt.Sprintf("end to end: %d iterations, %d ops attempted, %d failed, seed %d, GOMAXPROCS %d of %d CPUs, %s",
			res.Iters, res.Attempted, res.Failed, cfg.Seed, res.GOMAXPROCS, res.NumCPU, res.GoVersion), endToEnd, res.Metrics)
		if !*flagTraced {
			continue
		}
		tr, err := spawn("traced", c)
		if err != nil {
			return failed(err)
		}
		if tr.report() {
			code = exitFailed
		}
		all, traced = append(all, tr), append(traced, tr)
		printMetrics(fmt.Sprintf("traced pass: %d traced + %d untraced iterations", tracedIters, tracedIters), tracedMetrics, tr.Metrics)
	}
	if len(traced) > 0 {
		if err := writeTraces(cfg.Out, traced); err != nil {
			return failed(err)
		}
		fmt.Printf("traces written to %s\n", cfg.Out)
	}
	if *flagProbes {
		probes, err := spawn("probes", cfg)
		if err != nil {
			return failed(err)
		}
		all = append(all, probes)
		printMetrics("== per-layer probes (isolated loops, tracing off, median of 21 batches)", probeMetrics, probes.Metrics)
	}
	if *flagJSON != "" {
		for _, res := range all {
			res.Spans, res.SimTrace = nil, nil // already in the trace files
		}
		b, err := json.MarshalIndent(all, "", "  ")
		if err == nil {
			err = os.WriteFile(*flagJSON, append(b, '\n'), 0o644)
		}
		if err != nil {
			return failed(fmt.Errorf("write %s: %w", *flagJSON, err))
		}
	}
	return code
}

// runAA runs the end-to-end pass twice per workload in fresh processes
// and fails, naming the metric and workload, if the two sets disagree by
// more than the metric's own bound — deterministic metrics by anything.
func runAA(cfg config) int {
	code := exitOK
	for _, wl := range selected(cfg) {
		c := cfg
		c.Workload = wl.name
		var sets [2]*passResult
		for i := range sets {
			res, err := spawn("e2e", c)
			if err != nil {
				return failed(err)
			}
			if res.report() {
				code = exitFailed
			}
			sets[i] = res
		}
		a, b := sets[0], sets[1]
		fmt.Printf("== %s: A %d iterations, B %d iterations\n", wl.name, a.Iters, b.Iters)
		fmt.Printf("  %-26s %-7s %14s %14s %14s   %14s %14s %14s %9s\n", "metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "B vs A")
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name], b.Metrics[d.Name]
			qa, qb := a.Quartiles[d.Name], b.Quartiles[d.Name]
			if _, ok := a.Quartiles[d.Name]; !ok {
				qa, qb = quartiles{va, va, va}, quartiles{vb, vb, vb}
			}
			diff := (vb - va) / va
			fmt.Printf("  %-26s %-7s %14.6g %14.6g %14.6g   %14.6g %14.6g %14.6g %+8.2f%%\n",
				d.Name, d.Unit, qa[0], va, qa[2], qb[0], vb, qb[2], 100*diff)
			switch {
			case deterministic[d.Name] && va != vb:
				fmt.Fprintf(os.Stderr, "codaperf: A/A FAILED: %s on %s is deterministic but read %v then %v\n", d.Name, wl.name, va, vb)
				code = exitFailed
			case diff > d.Bound || diff < -d.Bound:
				fmt.Fprintf(os.Stderr, "codaperf: A/A FAILED: %s on %s differs by %.2f%%, bound %.0f%%\n", d.Name, wl.name, 100*diff, 100*d.Bound)
				code = exitFailed
			}
		}
	}
	if code == exitOK {
		fmt.Println("A/A: every end-to-end metric of every workload agrees within its bound")
	}
	return code
}
