package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// metricDef declares one reported metric. BENCHMARK.json declares the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metric@workload a
	// change in this layer should move.
	Moves string
}

// endToEndDefs are the metrics of an untraced run. Every workload reports
// every one of them. The bounds come from ten runs per workload with
// distinct seeds on a shared two-vCPU host: times, scaled to reference
// speed, spread by up to 10% (interquartile range over median), so they
// get 25%; the counts and memory spread by 2% (alloc) and 6% (heap);
// cost to target is deterministic for engine-poweramp and fleet-ladder and
// spreads by 0.3% over replica-churn's seeds, so a quality loss beyond 5%
// counts as a regression.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "suggest_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "suggest_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "observe_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "observe_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "suggestions_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "equiv_sims_to_target", Unit: "sims", Better: "lower", Bound: 0.05},
	{Name: "alloc_mb_per_suggestion", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayerDefs are the metrics of a traced run, each with the end-to-end
// metric it should move. Layers a workload does not have report 0; layer
// times that only some workloads have are reported as shares of traced self
// time (*.self_pct) rather than in ms.
var perLayerDefs = []metricDef{
	{Name: "core.ask_ms_p50", Unit: "ms", Better: "lower", Moves: "suggest_p50_ms@engine-poweramp, suggest_p50_ms@fleet-ladder"},
	{Name: "core.tell_ms_p50", Unit: "ms", Better: "lower", Moves: "observe_p50_ms@engine-poweramp, observe_p50_ms@fleet-ladder"},
	{Name: "core.ask_self_ms_per_suggestion", Unit: "ms", Better: "lower", Moves: "suggest_p50_ms@engine-poweramp"},
	{Name: "gp.fit_self_ms_per_suggestion", Unit: "ms", Better: "lower", Moves: "suggest_p50_ms, suggestions_per_s@engine-poweramp"},
	{Name: "gp.fit_calls_per_suggestion", Unit: "count", Better: "lower", Moves: "suggest_p50_ms, suggestions_per_s@engine-poweramp"},
	{Name: "optimize.msp_self_ms_per_suggestion", Unit: "ms", Better: "lower", Moves: "suggest_p50_ms, suggestions_per_s@engine-poweramp"},
	{Name: "optimize.msp_calls_per_suggestion", Unit: "count", Better: "lower", Moves: "suggest_p50_ms, suggestions_per_s@engine-poweramp"},
	{Name: "client.self_pct", Unit: "%", Better: "lower", Moves: "suggest_p50_ms, observe_p50_ms@replica-churn"},
	{Name: "gateway.self_pct", Unit: "%", Better: "lower", Moves: "suggest_p50_ms@fleet-ladder"},
	{Name: "server.self_pct", Unit: "%", Better: "lower", Moves: "suggest_p50_ms, observe_p50_ms, suggestions_per_s@replica-churn"},
	{Name: "core.self_pct", Unit: "%", Better: "lower", Moves: "suggest_p50_ms@engine-poweramp"},
	{Name: "gp.self_pct", Unit: "%", Better: "lower", Moves: "suggestions_per_s@engine-poweramp"},
	{Name: "optimize.self_pct", Unit: "%", Better: "lower", Moves: "suggestions_per_s@engine-poweramp"},
	{Name: "storage.self_pct", Unit: "%", Better: "lower", Moves: "observe_p50_ms, suggestions_per_s@replica-churn"},
	{Name: "worker.self_pct", Unit: "%", Better: "lower", Moves: "suggestions_per_s@fleet-ladder"},
	{Name: "storage.puts_per_observation", Unit: "count", Better: "lower", Moves: "observe_p50_ms@replica-churn, observe_p50_ms@fleet-ladder"},
	{Name: "storage.put_bytes_per_observation", Unit: "bytes", Better: "lower", Moves: "observe_p50_ms, suggestions_per_s@replica-churn"},
	{Name: "storage.gets_per_session", Unit: "count", Better: "lower", Moves: "suggestions_per_s@replica-churn"},
	{Name: "storage.put_ms_p50", Unit: "ms", Better: "lower", Moves: "observe_p50_ms@replica-churn, observe_p50_ms@engine-poweramp, observe_p50_ms@fleet-ladder"},
	{Name: "storage.put_ms_p99", Unit: "ms", Better: "lower", Moves: "observe_p90_ms@replica-churn"},
	{Name: "http.requests_per_session", Unit: "count", Better: "lower", Moves: "suggestions_per_s@replica-churn"},
	{Name: "http.bytes_per_suggestion", Unit: "bytes", Better: "lower", Moves: "suggest_p50_ms, observe_p50_ms@replica-churn"},
	{Name: "client.retries_per_request", Unit: "count", Better: "lower", Moves: "suggest_p90_ms@replica-churn"},
	{Name: "gateway.upstream_attempts_per_request", Unit: "count", Better: "lower", Moves: "suggest_p50_ms@fleet-ladder"},
	{Name: "gateway.wrong_owner_total", Unit: "count", Better: "lower", Moves: "suggest_p90_ms@fleet-ladder"},
	{Name: "dispatch.empty_leases_per_evaluation", Unit: "count", Better: "lower", Moves: "suggestions_per_s@fleet-ladder"},
	{Name: "dispatch.requeues_total", Unit: "count", Better: "lower", Moves: "suggestions_per_s@fleet-ladder"},
	{Name: "dispatch.leases_expired_total", Unit: "count", Better: "lower", Moves: "suggestions_per_s@fleet-ladder"},
	{Name: "worker.idle_pct", Unit: "%", Better: "lower", Moves: "suggestions_per_s@fleet-ladder"},
	{Name: "worker.heartbeats_per_evaluation", Unit: "count", Better: "lower", Moves: "observe_p50_ms@fleet-ladder"},
	{Name: "eval.sims_per_session.rung0", Unit: "count", Better: "lower", Moves: "equiv_sims_to_target"},
	{Name: "eval.sims_per_session.rung1", Unit: "count", Better: "lower", Moves: "equiv_sims_to_target"},
	{Name: "eval.sims_per_session.rung2", Unit: "count", Better: "lower", Moves: "equiv_sims_to_target@fleet-ladder"},
	{Name: "eval.high_sim_ms_p50", Unit: "ms", Better: "lower", Moves: "suggestions_per_s@engine-poweramp (small share)"},
	{Name: "telemetry.overhead_pct", Unit: "%", Better: "lower", Moves: "tracing cost, traced vs untraced suggestions_per_s"},
	{Name: "telemetry.spans_per_suggestion", Unit: "count", Better: "lower", Moves: "telemetry.overhead_pct"},
	{Name: "telemetry.complete_traces_pct", Unit: "%", Better: "higher", Moves: "none: a run fails below 95"},
	{Name: "runtime.gc_cycles_per_suggestion", Unit: "count", Better: "lower", Moves: "alloc_mb_per_suggestion, suggestions_per_s"},
}

// pass is what one measured pass of a workload saw.
type pass struct {
	probe       *speedProbe
	setup       *Samples // seconds at reference speed, one per set-up
	start, stop time.Time
	speed       float64 // the host's mean speed from start to stop
	memw        *memWatch
	mem         memUse

	// suggest and observe hold call latencies in milliseconds at reference
	// speed.
	suggest, observe      *Samples
	sessions, suggestions int
	attempted, failed     int
	toTarget              []float64 // cost to target per session
	// fingerprint identifies the pass's deterministic trajectories; "" when
	// the workload has none.
	fingerprint string
	violations  []string

	// Layer inputs; nil or zero where the workload has no such layer.
	spans      *spanCollector
	drainMu    sync.Mutex
	drained    time.Time // last drain
	trace      *traceStats
	client     *timingTransport // every request the benchmark or its workers send
	upstream   *timingTransport // gateway to replicas
	store      *timedStore
	evals      *evalStats
	replicas   []*telemetry.Registry
	gateway    *telemetry.Registry
	workerWall time.Duration // summed wall time of every worker's Run
	workerRuns int           // worker runs that ended on a done reply
}

// newPass starts the speed probe and sizes the latency records for up to
// calls calls of each kind.
func newPass(calls int) *pass {
	return &pass{
		probe:   startProbe(),
		setup:   newSamples(setupRepeats),
		suggest: newSamples(calls),
		observe: newSamples(calls),
		evals:   newEvalStats(),
	}
}

// setUp records one set-up that began at start and has just finished.
func (p *pass) setUp(start time.Time) { p.setup.Add(p.probe.elapsed(start) / 1e3) }

// begin starts the measured part of the pass, after set-up.
func (p *pass) begin() {
	p.memw = watchMem()
	p.start = time.Now()
}

// finish ends the measured part of the pass and stops the speed probe
// (which the workloads also stop, by defer, when they return an error).
func (p *pass) finish() {
	p.stop = time.Now()
	p.mem = p.memw.end()
	p.probe.end()
	p.speed = p.probe.speedSince(p.start.UnixNano())
}

// traceInto wires an in-memory span collector and trace aggregation into p.
func (p *pass) traceInto() *spanCollector {
	p.spans = newSpanCollector(1 << 20)
	p.trace = newTraceStats()
	return p.spans
}

// drain moves the traces that finished at least quiet ago from the
// collector into the aggregation, at most once per quiet. Safe to call from
// several client goroutines.
func (p *pass) drain(quiet time.Duration) {
	if p.spans == nil {
		return
	}
	p.drainMu.Lock()
	defer p.drainMu.Unlock()
	if time.Since(p.drained) < quiet {
		return
	}
	p.drained = time.Now()
	p.trace.add(p.spans.take(quiet, false))
}

// drainAll moves every trace into the aggregation, finished or not. Call it
// once no more spans can arrive.
func (p *pass) drainAll() {
	if p.spans != nil {
		p.trace.add(p.spans.take(0, true))
	}
}

// rate returns suggestions per second of the pass at reference speed.
func (p *pass) rate() float64 {
	return float64(p.suggestions) / (p.stop.Sub(p.start).Seconds() * p.speed)
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(p *pass) map[string]float64 {
	return map[string]float64{
		"setup_s":                 p.setup.Quantile(0.5),
		"suggest_p50_ms":          p.suggest.Quantile(0.50),
		"suggest_p90_ms":          p.suggest.Quantile(0.90),
		"observe_p50_ms":          p.observe.Quantile(0.50),
		"observe_p90_ms":          p.observe.Quantile(0.90),
		"suggestions_per_s":       p.rate(),
		"equiv_sims_to_target":    mean(p.toTarget),
		"alloc_mb_per_suggestion": float64(p.mem.allocBytes) / 1e6 / float64(p.suggestions),
		"heap_live_mb":            p.mem.heapLive / 1e6,
	}
}

// perLayer computes the per-layer metrics of a traced pass t, using the
// untraced pass u of the same run for the tracing overhead.
func perLayer(u, t *pass) map[string]float64 {
	sugg := float64(max(t.suggestions, 1))
	sess := float64(max(t.sessions, 1))
	tr := t.trace
	m := map[string]float64{
		"core.ask_ms_p50":      zeroIfNaN(tr.askMillis.Quantile(0.5)),
		"core.tell_ms_p50":     zeroIfNaN(tr.tellMillis.Quantile(0.5)),
		"eval.high_sim_ms_p50": zeroIfNaN(t.evals.top.Quantile(0.5)),
	}
	for _, s := range []struct{ metric, span string }{
		{"core.ask", "engine.ask"}, {"gp.fit", "gp.fit"}, {"optimize.msp", "optimize.msp"},
	} {
		n, self := tr.byName(s.span)
		m[s.metric+"_self_ms_per_suggestion"] = float64(self) / 1e6 / sugg
		if s.metric != "core.ask" {
			m[s.metric+"_calls_per_suggestion"] = float64(n) / sugg
		}
	}
	total := tr.totalSelfNs()
	for _, l := range layers {
		m[l+".self_pct"] = 100 * ratio64(tr.layerSelf[l], total)
	}

	if t.store != nil {
		c := t.store.counts()
		m["storage.puts_per_observation"] = float64(c.Puts) / sugg
		m["storage.put_bytes_per_observation"] = float64(c.PutBytes) / sugg
		m["storage.gets_per_session"] = float64(c.Gets) / sess
		m["storage.put_ms_p50"] = t.store.putMillis.Quantile(0.50)
		m["storage.put_ms_p99"] = t.store.putMillis.Quantile(0.99)
	}
	if t.client != nil {
		c := t.client.totals("healthz")
		m["http.requests_per_session"] = float64(c.Requests) / sess
		m["http.bytes_per_suggestion"] = float64(c.Bytes) / sugg
		m["client.retries_per_request"] = ratio(c.Retried, c.Requests)
		if t.upstream != nil {
			m["gateway.upstream_attempts_per_request"] = ratio(t.upstream.totals("healthz").Requests, c.Requests)
		}
	}
	m["gateway.wrong_owner_total"] = float64(counter(t.gateway, "mfbo_gateway_wrong_owner_total"))
	var granted uint64
	for _, reg := range t.replicas {
		granted += counter(reg, "mfbo_dispatch_leases_granted_total")
		m["dispatch.requeues_total"] += float64(counter(reg, "mfbo_dispatch_requeues_total"))
		m["dispatch.leases_expired_total"] += float64(counter(reg, "mfbo_dispatch_leases_expired_total"))
	}
	if granted > 0 {
		g := float64(granted)
		leases := t.client.route("lease").Requests
		m["dispatch.empty_leases_per_evaluation"] = float64(leases-int(granted)-t.workerRuns) / g
		m["worker.heartbeats_per_evaluation"] = float64(t.client.route("heartbeat").Requests) / g
	}
	if t.workerWall > 0 {
		_, evalTime := t.evals.counts()
		busy := evalTime
		for _, r := range []string{"status", "lease", "report", "heartbeat"} {
			busy += t.client.route(r).Busy
		}
		m["worker.idle_pct"] = 100 * math.Max(0, 1-busy.Seconds()/t.workerWall.Seconds())
	}
	byRung, _ := t.evals.counts()
	for r := 0; r < 3; r++ {
		n := 0
		if r < len(byRung) {
			n = byRung[r]
		}
		m[fmt.Sprintf("eval.sims_per_session.rung%d", r)] = float64(n) / sess
	}
	m["telemetry.overhead_pct"] = 100 * (u.rate() - t.rate()) / u.rate()
	m["telemetry.spans_per_suggestion"] = float64(tr.spans) / sugg
	m["telemetry.complete_traces_pct"] = 100 * ratio(tr.complete, tr.traces)
	m["runtime.gc_cycles_per_suggestion"] = float64(t.mem.gcCycles) / sugg
	for _, d := range perLayerDefs {
		switch _, ok := m[d.Name]; {
		case !ok:
			m[d.Name] = 0 // a layer this workload does not have
		case d.Unit == "ms":
			m[d.Name] *= t.speed // at reference speed, like the end-to-end times
		}
	}
	return m
}

// counter reads one counter series from a registry (0 when absent).
func counter(reg *telemetry.Registry, key string) uint64 {
	v, _ := reg.Snapshot()[key].(uint64)
	return v
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ratio64(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// median returns the middle value of v (the mean of the two middle ones
// for an even count), leaving v in its order.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// memUse is the Go runtime's view of one pass.
type memUse struct {
	allocBytes, gcCycles uint64
	// heapLive is the median of the live heap (what the last GC cycle found
	// reachable) sampled every 100 ms: the pass's typical footprint. Unlike
	// the heap in use it does not swing with the GC sawtooth, and unlike a
	// peak it does not hinge on when one collection happened to run.
	heapLive float64
}

// memWatch samples the live heap and diffs the allocation and GC counters
// across a pass. It reads runtime/metrics, which does not stop the world.
type memWatch struct {
	start [3]uint64
	stop  chan struct{}
	done  chan memUse
}

// readMem returns bytes allocated, GC cycles and the live heap.
func readMem() [3]uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return [3]uint64{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func watchMem() *memWatch {
	w := &memWatch{start: readMem(), stop: make(chan struct{}), done: make(chan memUse, 1)}
	go func() {
		live := newSamples(1 << 10)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				live.Add(float64(readMem()[2]))
			case <-w.stop:
				end := readMem()
				live.Add(float64(end[2]))
				w.done <- memUse{
					allocBytes: end[0] - w.start[0],
					gcCycles:   end[1] - w.start[1],
					heapLive:   live.Quantile(0.5),
				}
				return
			}
		}
	}()
	return w
}

// end stops the sampler and returns the pass's memory use.
func (w *memWatch) end() memUse {
	close(w.stop)
	return <-w.done
}
