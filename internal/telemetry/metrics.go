// Package telemetry is the zero-dependency observability subsystem of the
// repo: a metrics registry (atomic counters, gauges, fixed-bucket
// histograms) with Prometheus-text and JSON exposition, a structured event
// log (JSONL sink + in-memory ring buffer) that records the paper's
// per-iteration decision variables, and lightweight monotonic-clock trace
// spans.
//
// Everything is allocation-lean and safe for concurrent use. All consumers
// accept a nil *Recorder / *Span / *Tracer and degrade to a no-op with zero
// allocations, so the optimizer hot paths (gp.Fit, optimize.MaximizeMSP,
// core.Engine.Ask/Tell) are bit-identical and benchmark-neutral when
// telemetry is off — the oracle test in internal/core proves the seeded
// trajectory does not change when it is on.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta atomically.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: Observe finds the first bucket with
// upper bound >= v. Exposition is Prometheus-compatible (cumulative
// _bucket{le=...} series plus _sum and _count).
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds; +Inf implicit
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    Gauge // atomic float accumulator
	count  atomic.Uint64
}

// DefBuckets are general-purpose latency buckets in seconds.
var DefBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30,
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	if idx < len(h.bounds) {
		h.counts[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Buckets returns the bucket upper bounds and their cumulative counts
// (excluding the implicit +Inf bucket, whose cumulative count is Count()).
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.bounds))
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		cumulative[i] = c
	}
	return bounds, cumulative
}

// metricKind discriminates series families for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one (family, label-set) time series.
type series struct {
	labels string // rendered `{k="v",...}` or ""
	ctr    *Counter
	gauge  *Gauge
	fn     func() float64
	hist   *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name, help string
	kind       metricKind
	series     map[string]*series // keyed by rendered label string
	order      []string
}

// Registry holds metric families and renders them as Prometheus text or
// JSON. Registration is idempotent: asking for an existing (name, labels)
// pair returns the live metric, so call sites don't need to cache handles
// (though hot paths should).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

// labelString renders alternating key/value pairs sorted by key:
// `{k1="v1",k2="v2"}`. Odd trailing keys are dropped.
func labelString(kv []string) string {
	if len(kv) < 2 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns (creating if needed) the series for (name, labels); the
// family's kind and help are fixed by the first registration. A new series
// gets its handle (counter, gauge, or a histogram with buckets, nil selecting
// DefBuckets) under the write lock, before any other caller can see it, so
// concurrent first registrations of one series all receive the same handle.
func (r *Registry) lookup(name, help string, kind metricKind, kv []string, buckets []float64) *series {
	if r == nil {
		return nil
	}
	ls := labelString(kv)
	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		if s, ok := f.series[ls]; ok && f.kind == kind {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		// Misregistration: surface loudly at development time rather than
		// silently exposing a corrupt family.
		panic(fmt.Sprintf("telemetry: metric %q registered as %v and %v", name, f.kind, kind))
	}
	s, ok := f.series[ls]
	if !ok {
		s = &series{labels: ls}
		switch kind {
		case kindCounter:
			s.ctr = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.hist = newHistogram(buckets)
		}
		f.series[ls] = s
		f.order = append(f.order, ls)
	}
	return s
}

// Counter returns (registering if needed) the counter for name and optional
// alternating label key/value pairs. Safe on a nil registry (returns nil,
// and nil metrics no-op).
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	if s := r.lookup(name, help, kindCounter, kv, nil); s != nil {
		return s.ctr
	}
	return nil
}

// Gauge returns (registering if needed) the gauge for name/labels.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	if s := r.lookup(name, help, kindGauge, kv, nil); s != nil {
		return s.gauge
	}
	return nil
}

// GaugeFunc registers a gauge whose value is computed at scrape time — ideal
// for uptime, queue depths and registry sizes owned by other subsystems.
// Registering the same series again replaces its function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	s := r.lookup(name, help, kindGaugeFunc, kv, nil)
	if s == nil {
		return
	}
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// gaugeFuncValue evaluates a GaugeFunc series (0 before its function is set).
func (r *Registry) gaugeFuncValue(s *series) (float64, bool) {
	r.mu.RLock()
	fn := s.fn
	r.mu.RUnlock()
	if fn == nil {
		return 0, false
	}
	return fn(), true
}

// Histogram returns (registering if needed) the fixed-bucket histogram for
// name/labels; buckets are upper bounds (nil selects DefBuckets) and are
// fixed by the first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, kv ...string) *Histogram {
	if s := r.lookup(name, help, kindHistogram, kv, buckets); s != nil {
		return s.hist
	}
	return nil
}

// CounterVec is a handle cache over one counter family with a fixed label
// schema: With(values...) returns the live counter for those label values,
// registering it on first use and serving repeats lock-free from a sync.Map.
// It replaces the bare per-call-site `sync.Map` keyed by hand-joined label
// strings that hot HTTP paths otherwise grow — every series it mints goes
// through the Registry, so it appears in /metrics exposition consistently
// and survives promlint. Nil-safe: a nil vec (from a nil registry) returns
// nil counters, which no-op.
type CounterVec struct {
	reg        *Registry
	name, help string
	keys       []string
	handles    sync.Map // "\x00"-joined label values -> *Counter
}

// CounterVec declares a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{reg: r, name: name, help: help, keys: labelNames}
}

// With returns the counter for the given label values (positionally matching
// the declared label names; missing values render as ""). The first call per
// distinct value set registers the series; subsequent calls are a single
// lock-free map hit.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	key := strings.Join(values, "\x00")
	if c, ok := v.handles.Load(key); ok {
		return c.(*Counter)
	}
	kv := make([]string, 0, 2*len(v.keys))
	for i, name := range v.keys {
		val := ""
		if i < len(values) {
			val = values[i]
		}
		kv = append(kv, name, val)
	}
	c := v.reg.Counter(v.name, v.help, kv...)
	actual, _ := v.handles.LoadOrStore(key, c)
	return actual.(*Counter)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (# HELP / # TYPE lines, series sorted within each family, families
// in registration order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	r.mu.RUnlock()
	var b strings.Builder
	for _, name := range names {
		r.mu.RLock()
		f := r.families[name]
		keys := append([]string(nil), f.order...)
		r.mu.RUnlock()
		sort.Strings(keys)
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, k := range keys {
			r.mu.RLock()
			s := f.series[k]
			r.mu.RUnlock()
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.ctr.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.gauge.Value()))
			case kindGaugeFunc:
				v, _ := r.gaugeFuncValue(s)
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(v))
			case kindHistogram:
				writeHistogram(&b, f.name, s.labels, s.hist)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series with labels merged into the
// per-bucket le label.
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	bounds, cum := h.Buckets()
	base := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	for i, ub := range bounds {
		le := formatFloat(ub)
		if base != "" {
			fmt.Fprintf(b, "%s_bucket{%s,le=\"%s\"} %d\n", name, base, le, cum[i])
		} else {
			fmt.Fprintf(b, "%s_bucket{le=\"%s\"} %d\n", name, le, cum[i])
		}
	}
	if base != "" {
		fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, base, h.Count())
		fmt.Fprintf(b, "%s_sum{%s} %s\n", name, base, formatFloat(h.Sum()))
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, base, h.Count())
	} else {
		fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
		fmt.Fprintf(b, "%s_sum %s\n", name, formatFloat(h.Sum()))
		fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
	}
}

// HistogramSnapshot is the JSON form of one histogram series.
type HistogramSnapshot struct {
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Cumsum  []uint64  `json:"cumulative"`
	Labels  string    `json:"labels,omitempty"`
	Buckets int       `json:"-"`
}

// Snapshot returns a JSON-marshalable view of every series, keyed by
// "name{labels}" — the expvar/debug-vars exposition.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	r.mu.RUnlock()
	for _, name := range names {
		r.mu.RLock()
		f := r.families[name]
		keys := append([]string(nil), f.order...)
		r.mu.RUnlock()
		for _, k := range keys {
			r.mu.RLock()
			s := f.series[k]
			r.mu.RUnlock()
			key := f.name + s.labels
			switch f.kind {
			case kindCounter:
				out[key] = s.ctr.Value()
			case kindGauge:
				out[key] = s.gauge.Value()
			case kindGaugeFunc:
				if v, ok := r.gaugeFuncValue(s); ok {
					out[key] = v
				}
			case kindHistogram:
				bounds, cum := s.hist.Buckets()
				out[key] = HistogramSnapshot{
					Count: s.hist.Count(), Sum: s.hist.Sum(),
					Bounds: bounds, Cumsum: cum, Labels: s.labels,
				}
			}
		}
	}
	return out
}

// Handler returns an http.Handler serving the Prometheus text exposition —
// mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
