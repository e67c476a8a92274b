package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
)

func newTestRegistry() (*Registry, *simtime.Sim) {
	s := simtime.NewSim(simtime.Epoch1995)
	return NewRegistry(s), s
}

func TestCounterGauge(t *testing.T) {
	r, _ := newTestRegistry()
	c := r.Counter("fix_ops_total", L("op", "read"))
	c.Inc()
	c.Add(4)
	c.Add(-3) // counters only go up; negative deltas are dropped
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("fix_ops_total", L("op", "read")); again != c {
		t.Error("re-registration did not return the same handle")
	}
	if other := r.Counter("fix_ops_total", L("op", "write")); other == c {
		t.Error("different labels must be a different series")
	}

	g := r.Gauge("fix_depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("fix_x_total").Inc()
	r.Gauge("fix_g").Set(3)
	r.GaugeFunc("fix_f", func() int64 { return 1 })
	r.CounterFunc("fix_cf_total", func() int64 { return 1 })
	r.Histogram("fix_h", []int64{1, 2}).Observe(5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry prom output: %q, %v", buf.String(), err)
	}
	// Dump on a nil registry is still a valid (empty) document.
	if !bytes.Contains(r.Dump(), []byte(`"metrics": []`)) {
		t.Errorf("nil dump = %s", r.Dump())
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r, _ := newTestRegistry()
	r.Counter("fix_thing")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("fix_thing")
}

// TestKindCollisionNamesFuncKind: a func-backed series shows as the kind
// it reads, so the panic must say which twin was registered first.
func TestKindCollisionNamesFuncKind(t *testing.T) {
	r, _ := newTestRegistry()
	r.CounterFunc("fix_thing_total", func() int64 { return 1 })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "re-registered as counter, was counter func") {
			t.Fatalf("panic = %q, want it to tell the plain counter from the func-backed one", msg)
		}
	}()
	r.Counter("fix_thing_total")
}

// TestCounterFunc: a func-backed counter reads its owner's count at dump
// time, dumps and exports as a counter, and a re-registration (a
// restarted owner) replaces the function.
func TestCounterFunc(t *testing.T) {
	r, _ := newTestRegistry()
	var owned int64 = 3
	r.CounterFunc("fix_done_total", func() int64 { return owned }, L("node", "a"))
	owned = 5
	if !bytes.Contains(r.Dump(), []byte(`"kind": "counter",
      "value": 5`)) {
		t.Errorf("dump does not read the owner's count as a counter:\n%s", r.Dump())
	}
	r.CounterFunc("fix_done_total", func() int64 { return 1 }, L("node", "a"))
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE fix_done_total counter\n", "fix_done_total{node=\"a\"} 1\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("prom output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestGaugeFuncLastWriterWins(t *testing.T) {
	r, _ := newTestRegistry()
	r.GaugeFunc("fix_level", func() int64 { return 1 })
	r.GaugeFunc("fix_level", func() int64 { return 2 })
	// The registry always carries its own drop counters; the test cares
	// only about the gauge under contention.
	var gauges []metricSnapshot
	for _, s := range r.snapshot() {
		if s.Name == "fix_level" {
			gauges = append(gauges, s)
		}
	}
	if len(gauges) != 1 || gauges[0].Value != 2 {
		t.Fatalf("snapshot = %+v, want single gauge of 2", gauges)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r, _ := newTestRegistry()
	h := r.Histogram("fix_lat_us", []int64{10, 100, 1000})

	// Bounds are inclusive: exactly-on-boundary observations land in
	// that bucket, one past it lands in the next.
	h.Observe(10)   // bucket 0 (le=10)
	h.Observe(11)   // bucket 1 (le=100)
	h.Observe(100)  // bucket 1
	h.Observe(1000) // bucket 2
	h.Observe(0)    // bucket 0
	h.Observe(-5)   // bucket 0: below the first bound still counts

	bounds, counts, sum, count := h.snapshot()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("bounds=%v counts=%v", bounds, counts)
	}
	want := []int64{3, 2, 1, 0}
	for i, c := range counts {
		if c != want[i] {
			t.Errorf("counts[%d] = %d, want %d (all: %v)", i, c, want[i], counts)
		}
	}
	if count != 6 || sum != 10+11+100+1000+0-5 {
		t.Errorf("count=%d sum=%d", count, sum)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r, _ := newTestRegistry()
	h := r.Histogram("fix_big_us", []int64{1, 2})
	h.Observe(3)
	h.Observe(1 << 40)
	_, counts, _, count := h.snapshot()
	if counts[2] != 2 || count != 2 {
		t.Errorf("overflow bucket = %d (counts %v), want 2", counts[2], counts)
	}
}

func TestHistogramZeroObservations(t *testing.T) {
	r, _ := newTestRegistry()
	r.Histogram("fix_idle_us", []int64{1, 10})
	bounds, counts, sum, count := r.Histogram("fix_idle_us", nil).snapshot()
	if count != 0 || sum != 0 {
		t.Errorf("zero-observation histogram: count=%d sum=%d", count, sum)
	}
	for i, c := range counts {
		if c != 0 {
			t.Errorf("counts[%d] = %d, want 0", i, c)
		}
	}
	if len(bounds) != 2 {
		t.Errorf("re-registration must keep original bounds, got %v", bounds)
	}
	// A zero-observation histogram still renders all its buckets.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `fix_idle_us_bucket{le="+Inf"} 0`) {
		t.Errorf("prom output missing empty +Inf bucket:\n%s", buf.String())
	}
}

func TestHistogramAscendingBoundsEnforced(t *testing.T) {
	r, _ := newTestRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds must panic")
		}
	}()
	r.Histogram("fix_bad", []int64{5, 5})
}

func TestDumpDeterministicAcrossInterleavings(t *testing.T) {
	// Two runs bumping the same metrics from racing goroutines in
	// opposite completion order must dump identically: counters are
	// commutative and the dump sorts by content.
	run := func(flip bool) []byte {
		r, sim := newTestRegistry()
		done := simtime.NewQueue[int](sim)
		sim.Run(func() {
			for i := 0; i < 8; i++ {
				n := i
				if flip {
					n = 7 - i
				}
				delay := time.Duration(n) * time.Millisecond
				sim.Go(func() {
					sim.Sleep(delay)
					r.Counter("fix_work_total").Add(int64(n))
					r.Histogram("fix_work_us", []int64{2, 4, 8}).Observe(int64(n))
					done.Put(n)
				})
			}
			for i := 0; i < 8; i++ {
				done.Get()
			}
		})
		return r.Dump()
	}
	a, b := run(false), run(true)
	if !bytes.Equal(a, b) {
		t.Errorf("dumps differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r, _ := newTestRegistry()
	r.Counter("fix_ops_total", L("op", "read")).Add(3)
	r.Counter("fix_ops_total", L("op", "write")).Add(1)
	r.GaugeFunc("fix_depth", func() int64 { return 42 })
	h := r.Histogram("fix_lat_us", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"# TYPE fix_depth gauge\n",
		"fix_depth 42\n",
		"# TYPE fix_lat_us histogram\n",
		`fix_lat_us_bucket{le="10"} 1`,
		`fix_lat_us_bucket{le="100"} 2`,
		`fix_lat_us_bucket{le="+Inf"} 3`,
		"fix_lat_us_sum 5055\n",
		"fix_lat_us_count 3\n",
		"# TYPE fix_ops_total counter\n",
		`fix_ops_total{op="read"} 3`,
		`fix_ops_total{op="write"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("prom output missing %q:\n%s", want, got)
		}
	}
	// One TYPE header per name, even with several label sets.
	if strings.Count(got, "# TYPE fix_ops_total") != 1 {
		t.Errorf("duplicate TYPE headers:\n%s", got)
	}
}

func TestHTTPHandler(t *testing.T) {
	r, _ := newTestRegistry()
	r.Counter("fix_hits_total").Inc()

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String(), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(body, "fix_hits_total 1") || !strings.Contains(ctype, "text/plain") {
		t.Errorf("prom endpoint: ctype=%q body=%q", ctype, body)
	}
	body, ctype = get("/metrics/dump")
	if !strings.Contains(body, `"fix_hits_total"`) || ctype != "application/json" {
		t.Errorf("dump endpoint: ctype=%q body=%q", ctype, body)
	}
}
