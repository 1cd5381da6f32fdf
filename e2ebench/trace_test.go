package main

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

func node(name string, start, dur int64, children ...*telemetry.SpanNode) *telemetry.SpanNode {
	return &telemetry.SpanNode{
		SpanEvent: telemetry.SpanEvent{Name: name, StartUnixNs: start, DurNs: dur},
		Children:  children,
	}
}

func TestClippedSelfTime(t *testing.T) {
	for _, c := range []struct {
		name string
		n    *telemetry.SpanNode
		want int64
	}{
		{"leaf", node("a", 0, 100), 100},
		{"disjoint children", node("a", 0, 100, node("b", 10, 20), node("c", 50, 10)), 70},
		{"overlapping children count once", node("a", 0, 100, node("b", 10, 40), node("c", 30, 40)), 40},
		{"child outliving its parent is clipped", node("a", 0, 100, node("b", 80, 500)), 80},
		{"child after its parent ended is ignored", node("a", 0, 100, node("b", 200, 50)), 100},
	} {
		if got := clippedSelfNs(c.n); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func span(trace string, id, parent uint64, name string) telemetry.Event {
	return telemetry.Event{Type: telemetry.EventSpan, Span: &telemetry.SpanEvent{
		Trace: trace, ID: id, Parent: parent, Name: name, StartUnixNs: int64(id), DurNs: 10,
	}}
}

func TestSpanCollectorHandsOverFinishedTraces(t *testing.T) {
	c := newSpanCollector(5)
	c.Emit(span("t1", 2, 1, "server.suggest"))
	c.Emit(span("t1", 1, 0, "bench.suggest")) // root ends last
	c.Emit(span("t2", 3, 9, "server.observe"))
	c.Emit(telemetry.Event{Type: telemetry.EventIteration, Iteration: &telemetry.IterationEvent{Iter: 0}})

	if got := c.take(time.Hour, false); len(got) != 0 {
		t.Fatalf("took %d traces before they were quiet", len(got))
	}
	got := c.take(0, false)
	if len(got) != 1 || got[0].ID != "t1" || !got[0].Complete() || got[0].Spans != 2 {
		t.Fatalf("took %+v, want the complete rooted trace t1", got)
	}
	if rest := c.take(0, true); len(rest) != 1 || rest[0].Complete() {
		t.Fatalf("the rootless trace t2 must come out incomplete on the final take: %+v", rest)
	}
	if c.spans != 3 {
		t.Errorf("%d spans held, want 3 (iteration events are not spans)", c.spans)
	}
	for i := uint64(10); i < 17; i++ {
		c.Emit(span("t3", i, 0, "bench.x"))
	}
	if c.dropped != 2 {
		t.Errorf("dropped %d spans beyond the limit of 5, want 2", c.dropped)
	}
}

func TestTraceStatsAttributesLayers(t *testing.T) {
	c := newSpanCollector(100)
	for _, ev := range []telemetry.Event{
		span("t", 1, 0, "bench.suggest"),
		span("t", 2, 1, "server.suggest"),
		span("t", 3, 2, "engine.ask"),
		span("t", 4, 3, "gp.fit"),
	} {
		ev.Span.StartUnixNs, ev.Span.DurNs = int64(ev.Span.ID), 100-10*int64(ev.Span.ID)
		c.Emit(ev)
	}
	s := newTraceStats()
	s.add(c.take(0, true))
	want := map[string]int64{"client": 10, "server": 10, "core": 10, "gp": 60}
	for l, v := range want {
		if s.layerSelf[l] != v {
			t.Errorf("layer %s self %d, want %d", l, s.layerSelf[l], v)
		}
	}
	if s.totalSelfNs() != 90 || s.complete != 1 || s.askMillis.Count() != 1 {
		t.Errorf("total %d, complete %d, asks %d", s.totalSelfNs(), s.complete, s.askMillis.Count())
	}
	if n, self := s.byName("gp.fit"); n != 1 || self != 60 {
		t.Errorf("byName(gp.fit) = %d, %d", n, self)
	}
}
