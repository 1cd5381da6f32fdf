package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRingKeepsNewestOldestFirst(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Type: EventIteration, Iteration: &IterationEvent{Iter: i}})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	for i, ev := range snap {
		if ev.Iteration.Iter != i+2 {
			t.Fatalf("snapshot[%d].Iter = %d, want %d", i, ev.Iteration.Iter, i+2)
		}
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
}

func TestRingPartialAndMinCapacity(t *testing.T) {
	r := NewRing(4)
	r.Emit(Event{Type: EventRun})
	r.Emit(Event{Type: EventSpan})
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Type != EventRun || snap[1].Type != EventSpan {
		t.Fatalf("partial snapshot = %+v", snap)
	}
	if r.Dropped() != 0 {
		t.Fatal("no events should be dropped before the ring fills")
	}
	// Capacity is clamped to at least 1.
	tiny := NewRing(0)
	tiny.Emit(Event{Type: EventRun})
	tiny.Emit(Event{Type: EventFault})
	if snap := tiny.Snapshot(); len(snap) != 1 || snap[0].Type != EventFault {
		t.Fatalf("tiny ring snapshot = %+v", snap)
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Emit(Event{Type: EventSpan})
				if i%50 == 0 {
					_ = r.Snapshot()
					_ = r.Dropped()
				}
			}
		}()
	}
	wg.Wait()
	if got := len(r.Snapshot()); got != 64 {
		t.Fatalf("full ring snapshot len = %d", got)
	}
	if r.Dropped() != 8*200-64 {
		t.Fatalf("dropped = %d, want %d", r.Dropped(), 8*200-64)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(Event{Type: EventRun, TimeUnixMs: 1, Run: &RunEvent{
		Problem: "pedagogical", Dim: 1, Budget: 15, Gamma: 0.01, InitLow: 8, InitHigh: 4,
	}})
	j.Emit(Event{Type: EventIteration, TimeUnixMs: 2, Iteration: &IterationEvent{
		Iter: 0, Fidelity: "high", Sigma2Max: 0.003, Threshold: 0.01, HasSigma2: true,
		AcqHigh: 1.5, X: []float64{0.25}, Objective: -5.5, CumCost: 12.2,
		NLMLLow: []float64{-3.1}, MSPStartsHigh: 6,
	}})
	j.Emit(Event{Type: EventFault, TimeUnixMs: 3, Fault: &FaultEvent{
		Fidelity: "low", Kind: "retry", Attempt: 1, Err: "boom",
	}})
	j.Emit(Event{Type: EventSpan, TimeUnixMs: 4, Span: &SpanEvent{
		ID: 1, Name: "engine.ask", StartUnixNs: 10, DurNs: 99,
		Attrs: map[string]float64{"iter": 0},
	}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("read %d events, want 4", len(events))
	}
	if events[0].Run == nil || events[0].Run.Problem != "pedagogical" {
		t.Fatalf("run event = %+v", events[0])
	}
	it := events[1].Iteration
	if it == nil || it.Fidelity != "high" || !it.HasSigma2 || it.Sigma2Max != 0.003 ||
		it.Threshold != 0.01 || it.AcqHigh != 1.5 || it.X[0] != 0.25 ||
		it.NLMLLow[0] != -3.1 || it.MSPStartsHigh != 6 {
		t.Fatalf("iteration event = %+v", it)
	}
	if f := events[2].Fault; f == nil || f.Kind != "retry" || f.Err != "boom" {
		t.Fatalf("fault event = %+v", f)
	}
	if sp := events[3].Span; sp == nil || sp.Name != "engine.ask" || sp.DurNs != 99 || sp.Attrs["iter"] != 0 {
		t.Fatalf("span event = %+v", sp)
	}
}

func TestJSONLFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/events.jsonl"
	j, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(Event{Type: EventRun, Run: &RunEvent{Problem: "x"}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONLFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Run.Problem != "x" {
		t.Fatalf("file round trip = %+v", events)
	}
}

func TestReadJSONLMalformedLine(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader("{\"type\":\"run\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 failure", err)
	}
}

// errSink always fails at marshal time via an unmarshalable attr — instead we
// test sticky write errors with a writer that fails.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return 0, fmt.Errorf("disk full")
}

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(&failWriter{})
	for i := 0; i < 3000; i++ { // overflow the bufio buffer to force a write
		j.Emit(Event{Type: EventSpan, Span: &SpanEvent{Name: strings.Repeat("x", 64)}})
	}
	if err := j.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("sticky error = %v", err)
	}
}

// TestJSONLSurvivesNonFiniteEvent: an event JSON cannot encode (AcqHigh =
// +Inf on a low-fidelity-only iteration) is written without its non-finite
// fields, and the events after it still reach the log.
func TestJSONLSurvivesNonFiniteEvent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(Event{Type: EventIteration, TimeUnixMs: 1, Iteration: &IterationEvent{
		Iter: 3, Fidelity: "low", AcqLow: 0.7, AcqHigh: math.Inf(1),
		RungVars: []float64{0.1, math.NaN()}, X: []float64{0.5}, Objective: -2, CumCost: 4,
	}})
	j.Emit(Event{Type: EventSpan, TimeUnixMs: 2, Span: &SpanEvent{
		ID: 7, Name: "engine.ask", Attrs: map[string]float64{"nlml": math.NaN(), "n": 12},
	}})
	later := Event{Type: EventIteration, TimeUnixMs: 3, Iteration: &IterationEvent{
		Iter: 4, Fidelity: "high", AcqHigh: 1.25, X: []float64{0.75}, Objective: -3, CumCost: 5,
	}}
	j.Emit(later)
	if err := j.Close(); err != nil {
		t.Fatalf("Close = %v, want nil", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("log has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	want := `{"type":"iteration","t_ms":1,"iteration":{"iter":3,"fidelity":"low","nc":0,` +
		`"acq_low":0.7,"x":[0.5],"objective":-2,"cum_cost":4}}`
	if lines[0] != want {
		t.Fatalf("non-finite event encoded as\n%s\nwant\n%s", lines[0], want)
	}
	if want := `{"type":"span","t_ms":2,"span":{"id":7,"name":"engine.ask","start_ns":0,"dur_ns":0,"attrs":{"n":12}}}`; lines[1] != want {
		t.Fatalf("non-finite span encoded as\n%s\nwant\n%s", lines[1], want)
	}
	// Events that encode keep their json.Marshal bytes.
	if enc, _ := json.Marshal(later); lines[2] != string(enc) {
		t.Fatalf("later event encoded as\n%s\nwant\n%s", lines[2], enc)
	}
	events, err := ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if it := events[0].Iteration; it.AcqHigh != 0 || it.AcqLow != 0.7 || it.RungVars != nil {
		t.Fatalf("read back %+v", it)
	}
}

// TestMarshalFiniteMatchesJSON: on events with only finite values the
// fallback encoder produces json.Marshal's bytes, field order and omitempty
// included.
func TestMarshalFiniteMatchesJSON(t *testing.T) {
	for _, ev := range []Event{
		{Type: EventRun, TimeUnixMs: 9, Run: &RunEvent{Problem: "poweramp", Dim: 5, Budget: 30,
			Gamma: 0.01, InitLow: 10, InitHigh: 5, Rungs: 3, RungCosts: []float64{0.1, 0.3, 1}}},
		{Type: EventIteration, Iteration: &IterationEvent{Iter: 2, Fidelity: "high", Sigma2Max: 0.003,
			HasSigma2: true, RungVars: []float64{0.2}, NLMLHigh: []float64{-1, 2.5}, Degrade: "warm-hypers",
			X: []float64{0.1, 0.9}, Constraints: []float64{-0.5}, FitMs: 1.5}},
		{Type: EventSpan, Span: &SpanEvent{ID: 1, Parent: 2, Trace: "ab", Service: "mfbod/ra",
			Name: "gp.fit", DurNs: 3, Attrs: map[string]float64{"z": 1, "a": 2}}},
		{Type: EventFault, Fault: &FaultEvent{Fidelity: "low", Kind: "error", Err: "bad \"quote\" <&>"}},
	} {
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := marshalFinite(ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("marshalFinite\n%s\njson.Marshal\n%s", got, want)
		}
	}
}

func TestMultiFiltersNils(t *testing.T) {
	if Multi() != nil {
		t.Fatal("Multi() should be nil")
	}
	var nilRing *Ring
	var nilJSONL *JSONL
	if Multi(nilRing, nilJSONL, nil) != nil {
		t.Fatal("Multi of typed nils should be nil")
	}
	r := NewRing(4)
	if s := Multi(nilJSONL, r); s != Sink(r) {
		t.Fatal("single live sink should be returned unwrapped")
	}
	r2 := NewRing(4)
	m := Multi(r, r2)
	m.Emit(Event{Type: EventRun})
	if len(r.Snapshot()) != 1 || len(r2.Snapshot()) != 1 {
		t.Fatal("multi did not fan out")
	}
}

func TestTracerSampling(t *testing.T) {
	ring := NewRing(64)
	tr := NewTracer(ring, 3)
	sampled := 0
	for i := 0; i < 9; i++ {
		sp := tr.Start("root")
		if sp != nil {
			sampled++
			child := sp.Child("child")
			child.Attr("k", 1)
			child.End()
			sp.End()
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d roots of 9 at 1/3, want 3", sampled)
	}
	snap := ring.Snapshot()
	if len(snap) != 6 { // 3 roots + 3 children
		t.Fatalf("emitted %d span events, want 6", len(snap))
	}
	// Children end before parents and carry the parent link.
	if snap[0].Span.Name != "child" || snap[0].Span.Parent == 0 {
		t.Fatalf("first span = %+v", snap[0].Span)
	}
	if snap[1].Span.Name != "root" || snap[1].Span.Parent != 0 {
		t.Fatalf("second span = %+v", snap[1].Span)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	ring := NewRing(8)
	tr := NewTracer(ring, 1)
	sp := tr.Start("once")
	sp.End()
	sp.End()
	if n := len(ring.Snapshot()); n != 1 {
		t.Fatalf("double End emitted %d events", n)
	}
}

func TestRecorderChildSharesRegistryAndFansOut(t *testing.T) {
	parentRing := NewRing(8)
	parent := NewRecorder(parentRing, 1)
	childRing := NewRing(8)
	child := parent.Child(childRing)

	if child.Registry() != parent.Registry() {
		t.Fatal("child must share the parent registry")
	}
	child.EmitIteration(&IterationEvent{Iter: 7})
	if len(parentRing.Snapshot()) != 1 || len(childRing.Snapshot()) != 1 {
		t.Fatal("child events must reach both sinks")
	}
	sp := child.StartSpan("s")
	sp.End()
	if len(childRing.Snapshot()) != 2 {
		t.Fatal("child spans must reach the child ring")
	}

	// A child of a nil recorder still works, sinking only to its own ring.
	var nilRec *Recorder
	orphan := nilRec.Child(childRing)
	orphan.EmitIteration(&IterationEvent{Iter: 1})
	if len(childRing.Snapshot()) != 3 {
		t.Fatal("orphan child lost its event")
	}
}

func TestRecorderEmitStampsTime(t *testing.T) {
	ring := NewRing(4)
	rec := NewRecorder(ring, 1)
	rec.Emit(Event{Type: EventRun, Run: &RunEvent{}})
	if ring.Snapshot()[0].TimeUnixMs == 0 {
		t.Fatal("Emit must stamp TimeUnixMs")
	}
	rec.Emit(Event{Type: EventRun, TimeUnixMs: 42, Run: &RunEvent{}})
	if ring.Snapshot()[1].TimeUnixMs != 42 {
		t.Fatal("Emit must preserve an explicit timestamp")
	}
}

func TestSummarizeAndTable(t *testing.T) {
	events := []Event{
		{Run: &RunEvent{Problem: "p", Dim: 2, NumConstraints: 1, Budget: 20, Gamma: 0.01, InitLow: 4, InitHigh: 2}},
		// Two init observations (Iter == -1).
		{Iteration: &IterationEvent{Iter: -1, Fidelity: "low"}},
		{Iteration: &IterationEvent{Iter: -1, Fidelity: "high"}},
		// Adaptive iterations.
		{Iteration: &IterationEvent{Iter: 0, Fidelity: "low", HasSigma2: true, Sigma2Max: 0.5, Threshold: 0.02, Objective: 3, CumCost: 5}},
		{Iteration: &IterationEvent{Iter: 1, Fidelity: "high", HasSigma2: true, Sigma2Max: 0.001, Threshold: 0.02, AcqHigh: 2.5, Objective: -1.25, CumCost: 6, Bootstrap: true}},
		{Iteration: &IterationEvent{Iter: 2, Fidelity: "high", Objective: -0.5, CumCost: 7, Failed: true, Degrade: "warm-hypers", DuplicateFallback: true}},
		{Span: &SpanEvent{Name: "gp.fit", DurNs: 4e6}},
		{Span: &SpanEvent{Name: "gp.fit", DurNs: 2e6}},
		{Span: &SpanEvent{Name: "engine.ask", DurNs: 9e6}},
	}
	s := Summarize(events)
	if s.Run == nil || s.InitLow != 1 || s.InitHigh != 1 {
		t.Fatalf("init accounting: %+v", s)
	}
	if len(s.Iterations) != 3 || s.NumLow != 1 || s.NumHigh != 2 {
		t.Fatalf("iteration accounting: %+v", s)
	}
	if s.NumFailed != 1 || s.Degraded != 1 || s.Bootstrap != 1 || s.Duplicates != 1 {
		t.Fatalf("flag accounting: %+v", s)
	}

	table := s.Table()
	for _, want := range []string{
		"problem=p", "sigma2_max", "bootstrap", "degrade:warm-hypers",
		"dup-fallback", "FAILED", "-1.25",
		"2 init (1 low + 1 high)", "3 adaptive (1 low + 2 high)",
	} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	// The failed high observation must not become the running best: the row
	// flagged FAILED still shows -1.25 as the incumbent.
	for _, line := range strings.Split(table, "\n") {
		if strings.Contains(line, "FAILED") && !strings.Contains(line, "-1.25") {
			t.Fatalf("failed row affected the running best:\n%s", table)
		}
	}
}
