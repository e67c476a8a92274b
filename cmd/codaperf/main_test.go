package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func asBenchmarkMetrics(defs []metricDef) []benchmarkMetric {
	out := make([]benchmarkMetric, len(defs))
	for i, d := range defs {
		out[i] = benchmarkMetric(d)
	}
	return out
}

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the tables the
// program reports from: same workloads, same metrics in the same order,
// same units, directions and bounds, and a default -seconds equal to
// run_seconds so `go run ./cmd/codaperf` measures what the driver does.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if got, want := bf.EndToEnd, asBenchmarkMetrics(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", got, want)
	}
	if got, want := bf.PerLayer, asBenchmarkMetrics(perLayer()); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs from probeMetrics+tracedMetrics:\n got %+v\nwant %+v", got, want)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if bf.Workloads[i].Name != wl.name || bf.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, wl.name, wl.why)
		}
	}
	if bf.RunSeconds != *flagSeconds {
		t.Errorf("run_seconds is %v but -seconds defaults to %v", bf.RunSeconds, *flagSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q (unit %q) does not fit the contract's character set", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
	}
}

// TestSmoke runs every workload end to end twice and traced once at a
// tenth of its size, and every probe once, all in this process. It checks
// what the benchmark promises: outputs verified, no failed ops, no leaked
// goroutines, every metric of BENCHMARK.json emitted exactly once per
// workload, and the deterministic metrics identical between the two runs.
func TestSmoke(t *testing.T) {
	probes := runProbes(1)
	for _, d := range probeMetrics {
		if _, ok := probes[d.Name]; !ok {
			t.Errorf("probe metric %s was not measured", d.Name)
		}
	}
	if len(probes) != len(probeMetrics) {
		t.Errorf("the probes emitted %d metrics, the table lists %d", len(probes), len(probeMetrics))
	}

	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			cfg := config{Workload: wl.name, Seed: 1, Iters: 1, Scale: 0.1, Seconds: 1}
			a := endToEndPass(wl, cfg)
			b := endToEndPass(wl, cfg)
			traced := tracedPass(wl, cfg, 1)
			for _, res := range []*passResult{a, b, traced} {
				if !res.correct() || res.Attempted == 0 {
					t.Errorf("%s pass: %d of %d ops failed: %v", res.Pass, res.Failed, res.Attempted, res.Errors)
				}
				if n := res.Metrics["codaperf.leaked_goroutines"]; n != 0 {
					t.Errorf("%s pass leaked %v goroutines", res.Pass, n)
				}
			}
			for _, d := range endToEnd {
				v, ok := a.Metrics[d.Name]
				if !ok || v == 0 {
					t.Errorf("end-to-end metric %s = %v, emitted %v; it must be measured and never 0", d.Name, v, ok)
				}
				if deterministic[d.Name] && v != b.Metrics[d.Name] {
					t.Errorf("%s is deterministic but read %v then %v", d.Name, v, b.Metrics[d.Name])
				}
			}
			for _, d := range tracedMetrics {
				if _, ok := traced.Metrics[d.Name]; !ok {
					t.Errorf("traced metric %s was not measured", d.Name)
				}
				if _, dup := probes[d.Name]; dup {
					t.Errorf("metric %s is emitted by both the probes and the traced pass", d.Name)
				}
			}
			if len(traced.Metrics) != len(tracedMetrics) {
				t.Errorf("the traced pass emitted %d metrics, the table lists %d", len(traced.Metrics), len(tracedMetrics))
			}
			if len(traced.Spans) == 0 || len(traced.SimTrace) == 0 {
				t.Errorf("traced pass kept %d own spans and %d bytes of sim-time trace; want both", len(traced.Spans), len(traced.SimTrace))
			}
			if _, err := chromeTrace(traced.Spans); err != nil {
				t.Errorf("chrome trace: %v", err)
			}
		})
	}
}
