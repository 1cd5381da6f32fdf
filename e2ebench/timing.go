package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/problem"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// This file holds the outside-in timers: every layer is measured by timing
// calls into its public API, never by code inside the program.

// Samples records measurements and answers exact quantiles from the stored
// values (no buckets, no sketches). Safe for concurrent Add.
type Samples struct {
	mu sync.Mutex
	v  []float64
}

// newSamples preallocates room for n values. Sized to a pass's largest
// count, the benchmark's own memory does not grow with the program's
// throughput, which heap_live_mb would otherwise penalize.
func newSamples(n int) *Samples { return &Samples{v: make([]float64, 0, n)} }

// Add records one value.
func (s *Samples) Add(v float64) {
	s.mu.Lock()
	s.v = append(s.v, v)
	s.mu.Unlock()
}

// AddDuration records d in milliseconds.
func (s *Samples) AddDuration(d time.Duration) { s.Add(float64(d.Nanoseconds()) / 1e6) }

// Count returns the number of recorded values.
func (s *Samples) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// Quantile returns the nearest-rank q-quantile: the smallest recorded value
// with at least a q share of the values at or below it. NaN when empty.
func (s *Samples) Quantile(q float64) float64 {
	s.mu.Lock()
	sorted := append([]float64(nil), s.v...)
	s.mu.Unlock()
	if len(sorted) == 0 {
		return math.NaN()
	}
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// timedStore decorates a storage.Store, timing its writes and counting
// writes, bytes written and reads. It passes data and errors through
// untouched.
type timedStore struct {
	storage.Store
	putMillis *Samples

	mu       sync.Mutex
	puts     int
	putBytes int64
	gets     int
}

// newTimedStore wraps inner, with room for puts write latencies.
func newTimedStore(inner storage.Store, puts int) *timedStore {
	return &timedStore{Store: inner, putMillis: newSamples(puts)}
}

func (s *timedStore) Put(kind storage.Kind, id string, data []byte) error {
	start := time.Now()
	err := s.Store.Put(kind, id, data)
	s.putMillis.AddDuration(time.Since(start))
	s.mu.Lock()
	s.puts++
	s.putBytes += int64(len(data))
	s.mu.Unlock()
	return err
}

func (s *timedStore) Get(kind storage.Kind, id string) ([]byte, error) {
	s.mu.Lock()
	s.gets++
	s.mu.Unlock()
	return s.Store.Get(kind, id)
}

// storeCounts is a point-in-time copy of a timedStore's counters.
type storeCounts struct {
	Puts     int
	PutBytes int64
	Gets     int
}

func (s *timedStore) counts() storeCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return storeCounts{Puts: s.puts, PutBytes: s.putBytes, Gets: s.gets}
}

// evalStats counts and times the simulations of every timedProblem that
// shares it, per fidelity rung.
type evalStats struct {
	mu     sync.Mutex
	byRung []int
	total  time.Duration
	top    *Samples // milliseconds per target-rung simulation
}

func newEvalStats() *evalStats { return &evalStats{top: newSamples(1 << 12)} }

func (e *evalStats) record(rung, rungs int, d time.Duration) {
	e.mu.Lock()
	for len(e.byRung) <= rung {
		e.byRung = append(e.byRung, 0)
	}
	e.byRung[rung]++
	e.total += d
	e.mu.Unlock()
	if rung == rungs-1 {
		e.top.AddDuration(d)
	}
}

// counts returns the per-rung simulation counts and the total time spent.
func (e *evalStats) counts() ([]int, time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.byRung...), e.total
}

// timedProblem decorates a problem.Problem, timing every Evaluate into its
// evalStats. It forwards the rung count and unwraps to the inner problem, so
// the engine derives the same fidelity ladder as for the bare problem.
type timedProblem struct {
	problem.Problem
	stats *evalStats
	rungs int
}

func newTimedProblem(p problem.Problem, stats *evalStats) *timedProblem {
	return &timedProblem{Problem: p, stats: stats, rungs: problem.NumFidelities(p)}
}

func (p *timedProblem) Evaluate(x []float64, f problem.Fidelity) problem.Evaluation {
	start := time.Now()
	ev := p.Problem.Evaluate(x, f)
	rung := int(f)
	if rung >= p.rungs {
		rung = p.rungs - 1
	}
	p.stats.record(rung, p.rungs, time.Since(start))
	return ev
}

// NumFidelities implements problem.MultiFidelity.
func (p *timedProblem) NumFidelities() int { return p.rungs }

// Unwrap implements problem.Unwrapper.
func (p *timedProblem) Unwrap() problem.Problem { return p.Problem }

// routeStats is what a timingTransport saw for one API route.
type routeStats struct {
	Requests int
	// Retried counts the attempts a client retries: transport errors and the
	// transient statuses (see retried). Failed counts the replies no retry
	// can fix; Failures breaks them down by status.
	Retried, Failed int
	Failures        map[int]int
	Bytes           int64
	Busy            time.Duration // summed latency
	// Millis holds every latency, at reference speed, when the transport
	// keeps them.
	Millis *Samples
}

// retried reports the replies a client retries (status 0 is a transport
// error).
func retried(status int) bool {
	switch status {
	case 0, 421, http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// failed reports the replies no retry can fix. 409 is the protocol's resync
// conflict (no pending ask, tell mismatch, lease expired), not a failure.
func failed(status int) bool {
	return status >= 400 && status != http.StatusConflict && !retried(status)
}

// timingTransport is an http.RoundTripper that records per-route count,
// latency (request written to response body closed), bytes and status. With
// a non-nil roots tracer it also opens a benchmark-side root span around
// every request that does not already carry a traceparent, so the program's
// own spans assemble under one trace per call.
type timingTransport struct {
	base  *http.Transport
	roots *telemetry.Tracer
	// probe, when set, makes the transport keep every latency, scaled to
	// reference speed. Only workloads whose calls the benchmark cannot time
	// directly need it: the stored values grow with throughput and would
	// otherwise show in heap_live_mb.
	probe *speedProbe

	mu     sync.Mutex
	routes map[string]*routeStats
	// errBodies keeps the start of the first few failed replies' bodies,
	// which name the error.
	errBodies []string
}

// keptErrBodies bounds timingTransport.errBodies.
const keptErrBodies = 4

func newTimingTransport(roots *telemetry.Tracer, probe *speedProbe) *timingTransport {
	return &timingTransport{
		base:   http.DefaultTransport.(*http.Transport).Clone(),
		roots:  roots,
		probe:  probe,
		routes: make(map[string]*routeStats),
	}
}

// client returns an http.Client over t.
func (t *timingTransport) client() *http.Client { return &http.Client{Transport: t} }

// close drops idle keep-alive connections.
func (t *timingTransport) close() { t.base.CloseIdleConnections() }

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req.Method, req.URL.Path)
	var span *telemetry.Span
	if t.roots != nil && req.Header.Get(telemetry.TraceparentHeader) == "" {
		span = t.roots.Start("bench." + route)
		req = req.Clone(req.Context()) // a RoundTripper must not modify its request
		span.Context().Inject(req.Header)
	}
	sent := max(req.ContentLength, 0)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		span.End()
		t.record(route, start, sent, 0, nil)
		return nil, err
	}
	body := &timedBody{ReadCloser: resp.Body, keepHead: failed(resp.StatusCode)}
	body.done = func(n int64) {
		span.End()
		t.record(route, start, sent+n, resp.StatusCode, body.head)
	}
	resp.Body = body
	return resp, nil
}

// record files one exchange that started at start and has just finished;
// status 0 means a transport error.
func (t *timingTransport) record(route string, start time.Time, bytes int64, status int, errBody []byte) {
	d := time.Since(start)
	var ms float64
	if t.probe != nil {
		ms = t.probe.elapsed(start)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rs := t.routes[route]
	if rs == nil {
		rs = &routeStats{Millis: newSamples(0)}
		t.routes[route] = rs
	}
	rs.Requests++
	rs.Bytes += bytes
	rs.Busy += d
	switch {
	case retried(status):
		rs.Retried++
	case failed(status):
		rs.Failed++
		if rs.Failures == nil {
			rs.Failures = make(map[int]int)
		}
		rs.Failures[status]++
		if len(t.errBodies) < keptErrBodies {
			t.errBodies = append(t.errBodies, fmt.Sprintf("%s %d: %s", route, status, strings.TrimSpace(string(errBody))))
		}
	}
	if t.probe != nil {
		rs.Millis.Add(ms)
	}
}

// route returns the stats of one route (zero when unseen). Read it once the
// traffic has stopped.
func (t *timingTransport) route(name string) *routeStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rs := t.routes[name]; rs != nil {
		return rs
	}
	return &routeStats{Millis: newSamples(0)}
}

// failures describes the failed replies by route and status, with the
// first few error bodies.
func (t *timingTransport) failures() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var parts []string
	for name, rs := range t.routes {
		for status, n := range rs.Failures {
			parts = append(parts, fmt.Sprintf("%s: %d×%d", name, n, status))
		}
	}
	sort.Strings(parts)
	return strings.Join(append(parts, t.errBodies...), "; ")
}

// totals sums every route except the excluded ones.
func (t *timingTransport) totals(exclude ...string) routeStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum routeStats
	for name, rs := range t.routes {
		if slices.Contains(exclude, name) {
			continue
		}
		sum.Requests += rs.Requests
		sum.Retried += rs.Retried
		sum.Failed += rs.Failed
		sum.Bytes += rs.Bytes
		sum.Busy += rs.Busy
	}
	return sum
}

// timedBody counts response bytes and reports once, on Close. With
// keepHead it also keeps the first bytes read, for an error reply.
type timedBody struct {
	io.ReadCloser
	n        int64
	keepHead bool
	head     []byte
	once     sync.Once
	done     func(n int64)
}

// errHeadBytes is how much of a failed reply's body timedBody keeps.
const errHeadBytes = 200

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if b.keepHead && len(b.head) < errHeadBytes {
		b.head = append(b.head, p[:min(n, errHeadBytes-len(b.head))]...)
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// routeOf names the API route of a request path, matching the server's
// route names (server.<route> spans).
func routeOf(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 2 && parts[1] == "sessions" && method == http.MethodPost:
		return "create"
	case len(parts) == 3 && parts[1] == "sessions" && method == http.MethodDelete:
		return "delete"
	case len(parts) == 4 && parts[1] == "sessions":
		if parts[3] == "observations" {
			return "observe"
		}
		return parts[3] // suggest, history, status, lease, report, telemetry
	case len(parts) == 4 && parts[1] == "leases" && parts[3] == "heartbeat":
		return "heartbeat"
	case len(parts) == 2 && parts[1] == "healthz":
		return "healthz"
	}
	return "other"
}
