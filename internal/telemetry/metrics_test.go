package telemetry

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Idempotent lookup returns the live metric.
	if r.Counter("c_total", "a counter").Value() != 5 {
		t.Fatal("second lookup did not return the same counter")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "", "route", "create")
	b := r.Counter("reqs_total", "", "route", "delete")
	a.Inc()
	a.Inc()
	b.Inc()
	if a.Value() != 2 || b.Value() != 1 {
		t.Fatalf("label series leaked: %d, %d", a.Value(), b.Value())
	}
	// Label order must not matter.
	x := r.Counter("multi_total", "", "b", "2", "a", "1")
	y := r.Counter("multi_total", "", "a", "1", "b", "2")
	x.Inc()
	if y.Value() != 1 {
		t.Fatal("label ordering created distinct series")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 5})
	// v <= le semantics: an observation exactly on a bound lands in that
	// bucket.
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 5.0, 7.0} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	// le=1: {0.5, 1.0}; le=2: +{1.5, 2.0}; le=5: +{5.0}; +Inf: +{7.0}.
	want := []uint64{2, 4, 5}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative[%d] = %d, want %d (cum=%v)", i, cum[i], want[i], cum)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-17.0) > 1e-12 {
		t.Fatalf("sum = %v, want 17", h.Sum())
	}
	// NaN observations are dropped, not counted.
	h.Observe(math.NaN())
	if h.Count() != 6 {
		t.Fatal("NaN observation was counted")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestNilRegistryAndMetricsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("nope", "")
	g := r.Gauge("nope2", "")
	h := r.Histogram("nope3", "", nil)
	r.GaugeFunc("nope4", "", func() float64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestNoopPathAllocations pins the zero-allocation contract of the disabled
// telemetry path: the optimizer hot loops call these on nil receivers every
// iteration.
func TestNoopPathAllocations(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var sp *Span
	var tr *Tracer
	var rec *Recorder
	var cv *CounterVec
	ctx := context.Background()
	remote := TraceContext{TraceHi: 1, TraceLo: 2, SpanID: 3, Sampled: true}
	n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.Add(1)
		h.Observe(0.5)
		cv.With("a", "b").Inc()
		_ = tr.Start("x")
		_ = tr.StartRemote("x", remote)
		_ = sp.Child("y")
		sp.Attr("k", 1)
		sp.End()
		_ = sp.Context()
		rec.EmitIteration(nil)
		_ = rec.StartSpan("z")
		_ = rec.StartSpanIn(ctx, "z")
		_ = SpanFromContext(ctx)
		_ = ContextWithSpan(ctx, nil) // nil span: ctx returned unchanged
		_ = Detach(ctx)
	})
	if n != 0 {
		t.Fatalf("no-op telemetry path allocates %v times per run", n)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "total requests", "route", "create").Add(3)
	r.Counter("app_requests_total", "total requests", "route", "delete").Inc()
	r.Gauge("app_live", "live sessions").Set(2)
	r.GaugeFunc("app_uptime_seconds", "uptime", func() float64 { return 1.5 })
	h := r.Histogram("app_latency_seconds", "request latency", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)
	hl := r.Histogram("app_fit_seconds", "fit latency", []float64{1}, "kind", "low")
	hl.Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP app_requests_total total requests
# TYPE app_requests_total counter
app_requests_total{route="create"} 3
app_requests_total{route="delete"} 1
# HELP app_live live sessions
# TYPE app_live gauge
app_live 2
# HELP app_uptime_seconds uptime
# TYPE app_uptime_seconds gauge
app_uptime_seconds 1.5
# HELP app_latency_seconds request latency
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.5"} 1
app_latency_seconds_bucket{le="1"} 2
app_latency_seconds_bucket{le="+Inf"} 3
app_latency_seconds_sum 3
app_latency_seconds_count 3
# HELP app_fit_seconds fit latency
# TYPE app_fit_seconds histogram
app_fit_seconds_bucket{kind="low",le="1"} 1
app_fit_seconds_bucket{kind="low",le="+Inf"} 1
app_fit_seconds_sum{kind="low"} 0.5
app_fit_seconds_count{kind="low"} 1
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPrometheusHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("one_total", "").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "one_total 1") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", "k", "v").Add(7)
	r.Gauge("g", "").Set(1.25)
	h := r.Histogram("h", "", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	snap := r.Snapshot()
	if snap[`c_total{k="v"}`] != uint64(7) {
		t.Fatalf("counter snapshot = %v", snap[`c_total{k="v"}`])
	}
	if snap["g"] != 1.25 {
		t.Fatalf("gauge snapshot = %v", snap["g"])
	}
	hs, ok := snap["h"].(HistogramSnapshot)
	if !ok {
		t.Fatalf("histogram snapshot type %T", snap["h"])
	}
	if hs.Count != 2 || hs.Cumsum[0] != 1 || hs.Cumsum[1] != 2 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
}

func TestFormatFloatSpecials(t *testing.T) {
	for v, want := range map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.25:         "0.25",
	} {
		if got := formatFloat(v); got != want {
			t.Fatalf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Fatalf("formatFloat(NaN) = %q", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	ls := labelString([]string{"msg", "a\"b\\c\nd"})
	if ls != `{msg="a\"b\\c\nd"}` {
		t.Fatalf("escaped label = %q", ls)
	}
}

// TestRegistryConcurrency exercises registration and updates from many
// goroutines; run with -race to validate the locking discipline.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			route := string(rune('a' + w%4))
			for i := 0; i < 500; i++ {
				r.Counter("conc_total", "", "route", route).Inc()
				r.Gauge("conc_gauge", "").Add(1)
				r.Histogram("conc_hist", "", nil, "route", route).Observe(float64(i) / 100)
				if i%100 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for _, route := range []string{"a", "b", "c", "d"} {
		total += r.Counter("conc_total", "", "route", route).Value()
	}
	if total != workers*500 {
		t.Fatalf("lost increments: %d, want %d", total, workers*500)
	}
	if g := r.Gauge("conc_gauge", "").Value(); g != workers*500 {
		t.Fatalf("lost gauge adds: %v", g)
	}
}

// TestFirstRegistrationRace has 32 goroutines register the same new series
// at once (run with -race): every caller must get the same handle, so no
// observation is lost to a handle nobody exposes.
func TestFirstRegistrationRace(t *testing.T) {
	const workers = 32
	r := NewRegistry()
	ctrs := make([]*Counter, workers)
	gauges := make([]*Gauge, workers)
	hists := make([]*Histogram, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			ctrs[w] = r.Counter("race_total", "", "k", "v")
			ctrs[w].Inc()
			gauges[w] = r.Gauge("race_gauge", "")
			gauges[w].Add(1)
			hists[w] = r.Histogram("race_hist", "", nil, "k", "v")
			hists[w].Observe(0.1)
			r.GaugeFunc("race_fn", "", func() float64 { return 1 })
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		if ctrs[w] != ctrs[0] || gauges[w] != gauges[0] || hists[w] != hists[0] {
			t.Fatalf("goroutine %d got a different handle for the same series", w)
		}
	}
	if got := r.Counter("race_total", "", "k", "v").Value(); got != workers {
		t.Fatalf("counter = %d, want %d", got, workers)
	}
	if got := r.Gauge("race_gauge", "").Value(); got != workers {
		t.Fatalf("gauge = %v, want %d", got, workers)
	}
	if got := r.Histogram("race_hist", "", nil, "k", "v").Count(); got != workers {
		t.Fatalf("histogram count = %d, want %d", got, workers)
	}
	if got := r.Snapshot()["race_fn"]; got != 1.0 {
		t.Fatalf("gauge func = %v, want 1", got)
	}
}
