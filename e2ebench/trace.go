package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// spanCollector is the in-memory telemetry.Sink of a traced pass. It groups
// span events by trace ID and hands a trace over for assembly once its root
// has ended and no span has arrived for a while, so a long pass never holds
// more than the traces still in flight.
type spanCollector struct {
	mu      sync.Mutex
	open    map[string]*openTrace
	pending int // spans held in open
	limit   int // spans held at most; beyond it spans are dropped
	dropped int
	spans   int
}

type openTrace struct {
	events []telemetry.Event
	rooted bool
	last   time.Time
}

func newSpanCollector(limit int) *spanCollector {
	return &spanCollector{open: make(map[string]*openTrace), limit: limit}
}

// Emit implements telemetry.Sink.
func (c *spanCollector) Emit(ev telemetry.Event) {
	if ev.Span == nil || ev.Span.Trace == "" {
		return // iteration and run events
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending >= c.limit {
		c.dropped++
		return
	}
	c.spans++
	c.pending++
	t := c.open[ev.Span.Trace]
	if t == nil {
		t = &openTrace{}
		c.open[ev.Span.Trace] = t
	}
	t.events = append(t.events, ev)
	t.rooted = t.rooted || ev.Span.Parent == 0
	t.last = time.Now()
}

// take removes and assembles every trace whose root has ended and that has
// been quiet for at least quiet; with all set it takes every trace.
func (c *spanCollector) take(quiet time.Duration, all bool) []*telemetry.Trace {
	now := time.Now()
	var events []telemetry.Event
	c.mu.Lock()
	for id, t := range c.open {
		if all || (t.rooted && now.Sub(t.last) >= quiet) {
			events = append(events, t.events...)
			c.pending -= len(t.events)
			delete(c.open, id)
		}
	}
	c.mu.Unlock()
	return telemetry.AssembleTraces(events)
}

// layerOf maps a span name onto the layer that emits it.
func layerOf(span string) string {
	switch prefix, _, _ := strings.Cut(span, "."); prefix {
	case "bench":
		return "client" // benchmark-side root: client, transport and HTTP stack
	case "engine":
		return "core"
	case "gateway", "server", "gp", "optimize", "storage", "worker":
		return prefix
	}
	return "other"
}

// layers lists the layers in the order the benchmark reports them.
var layers = []string{"client", "gateway", "server", "core", "gp", "optimize", "storage", "worker"}

// traceStats accumulates assembled traces into per-stage and per-layer
// totals.
type traceStats struct {
	traces, complete int
	spans            int
	// stages is telemetry.AggregateStages summed over every batch.
	stages map[string]*telemetry.StageStats
	// stageSelf and layerSelf hold the clipped self time per stage (keyed
	// like AggregateStages: "<service> <span>") and per layer: a span's
	// duration minus the union of its children's intervals inside it. Unlike
	// SpanNode.SelfNs it ignores children that run after their parent ended,
	// such as a worker evaluating a lease whose reply was already sent.
	stageSelf map[string]int64
	layerSelf map[string]int64
	// durations of the engine's own spans, for the core latency quantiles.
	askMillis, tellMillis *Samples
}

func newTraceStats() *traceStats {
	return &traceStats{
		stages:     make(map[string]*telemetry.StageStats),
		stageSelf:  make(map[string]int64),
		layerSelf:  make(map[string]int64),
		askMillis:  newSamples(1 << 14),
		tellMillis: newSamples(1 << 14),
	}
}

// add folds a batch of assembled traces in.
func (s *traceStats) add(traces []*telemetry.Trace) {
	for _, st := range telemetry.AggregateStages(traces) {
		acc := s.stages[st.Stage]
		if acc == nil {
			acc = &telemetry.StageStats{Stage: st.Stage}
			s.stages[st.Stage] = acc
		}
		acc.Count += st.Count
		acc.TotalNs += st.TotalNs
		acc.SelfNs += st.SelfNs
		if st.MaxNs > acc.MaxNs {
			acc.MaxNs = st.MaxNs
		}
	}
	var walk func(n *telemetry.SpanNode)
	walk = func(n *telemetry.SpanNode) {
		self := clippedSelfNs(n)
		s.stageSelf[stageKey(&n.SpanEvent)] += self
		s.layerSelf[layerOf(n.Name)] += self
		s.spans++
		switch n.Name {
		case "engine.ask":
			s.askMillis.Add(float64(n.DurNs) / 1e6)
		case "engine.tell":
			s.tellMillis.Add(float64(n.DurNs) / 1e6)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, t := range traces {
		s.traces++
		if t.Complete() {
			s.complete++
		}
		for _, r := range t.Roots {
			walk(r)
		}
		for _, o := range t.Orphans {
			walk(o)
		}
	}
}

// totalSelfNs is the self time of every span seen: the denominator of the
// per-layer shares.
func (s *traceStats) totalSelfNs() int64 {
	var t int64
	for _, v := range s.layerSelf {
		t += v
	}
	return t
}

// byName sums count and clipped self time over every service's stage with
// span name.
func (s *traceStats) byName(name string) (count int, selfNs int64) {
	for key, st := range s.stages {
		if key == name || strings.HasSuffix(key, " "+name) {
			count += st.Count
			selfNs += s.stageSelf[key]
		}
	}
	return count, selfNs
}

// stageTable lists the per-stage totals, largest clipped self time first.
func (s *traceStats) stageTable() []stageRow {
	rows := make([]stageRow, 0, len(s.stages))
	for _, st := range s.stages {
		rows = append(rows, stageRow{
			Stage:   st.Stage,
			Count:   st.Count,
			SelfMs:  float64(s.stageSelf[st.Stage]) / 1e6,
			TotalMs: float64(st.TotalNs) / 1e6,
			MaxMs:   float64(st.MaxNs) / 1e6,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMs != rows[j].SelfMs {
			return rows[i].SelfMs > rows[j].SelfMs
		}
		return rows[i].Stage < rows[j].Stage
	})
	return rows
}

// stageRow is one line of the per-stage table written to the ledger.
type stageRow struct {
	Stage   string  `json:"stage"`
	Count   int     `json:"count"`
	SelfMs  float64 `json:"self_ms"`
	TotalMs float64 `json:"total_ms"`
	MaxMs   float64 `json:"max_ms"`
}

// stageKey names a span's stage the way telemetry.AggregateStages does.
func stageKey(sp *telemetry.SpanEvent) string {
	if sp.Service == "" {
		return sp.Name
	}
	return sp.Service + " " + sp.Name
}

// clippedSelfNs returns n's duration minus the part of its interval covered
// by its children.
func clippedSelfNs(n *telemetry.SpanNode) int64 {
	start, end := n.StartUnixNs, n.EndUnixNs()
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range n.Children {
		a, b := c.StartUnixNs, c.EndUnixNs()
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	for i, x := range ivs {
		switch {
		case i == 0:
			curA, curB = x.a, x.b
		case x.a <= curB:
			if x.b > curB {
				curB = x.b
			}
		default:
			covered += curB - curA
			curA, curB = x.a, x.b
		}
	}
	if len(ivs) > 0 {
		covered += curB - curA
	}
	return n.DurNs - covered
}
