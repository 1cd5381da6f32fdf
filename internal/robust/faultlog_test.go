package robust

import (
	"sync"
	"testing"

	"repro/internal/problem"
	"repro/internal/telemetry"
)

func TestFaultLogConcurrent(t *testing.T) {
	l := NewFaultLog()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.recordRetry(problem.Low)
				if i%25 == 0 {
					_ = l.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if l.TotalRetries() != 800 {
		t.Fatalf("retries = %d", l.TotalRetries())
	}
}

// TestWrapFaultEventsAndTelemetry drives scripted failures through the safe
// wrapper and checks that every retry and terminal failure reaches the
// telemetry event stream alongside a "robust.evaluate" span, and that the
// FaultLog counters agree with the stream.
func TestWrapFaultEventsAndTelemetry(t *testing.T) {
	clock := &fakeClock{}
	ring := telemetry.NewRing(256)
	rec := telemetry.NewRecorder(ring, 1)
	// Script: eval 1 fails once then succeeds (error + retry events); each
	// of the next fails evaluations fails terminally (MaxRetries=1: error,
	// retry, error, failure).
	fails := 8
	script := []string{"nan", "ok"}
	for i := 0; i < fails; i++ {
		script = append(script, "nan", "nan")
	}
	p := newFlaky(script...)
	s := Wrap(p, Policy{MaxRetries: 1, Seed: 1, Sleep: clock.sleep, Telemetry: rec})
	x := mid(s)
	if _, err := s.EvaluateRich(x, problem.Low); err != nil {
		t.Fatalf("first evaluation should recover: %v", err)
	}
	for i := 0; i < fails; i++ {
		if _, err := s.EvaluateRich(x, problem.Low); err == nil {
			t.Fatalf("evaluation %d should fail terminally", i+2)
		}
	}

	// Telemetry stream: retry events for both evaluations, one failure, and
	// robust.evaluate spans with the failed attempt annotated.
	var retries, failures, spans int
	for _, ev := range ring.Snapshot() {
		switch {
		case ev.Fault != nil && ev.Fault.Kind == faultRetry:
			retries++
			if ev.Fault.Fidelity != "low" {
				t.Fatalf("fault fidelity = %q", ev.Fault.Fidelity)
			}
		case ev.Fault != nil && ev.Fault.Kind == faultFailure:
			failures++
			if ev.Fault.Err == "" {
				t.Fatal("terminal failure event must carry the error")
			}
		case ev.Span != nil && ev.Span.Name == "robust.evaluate":
			spans++
		}
	}
	if retries != 1+fails || failures != fails || spans != 1+fails {
		t.Fatalf("telemetry stream: %d retries, %d failures, %d spans", retries, failures, spans)
	}
	if got := s.Faults().TotalRetries(); got != retries {
		t.Fatalf("FaultLog counts %d retries, the stream %d", got, retries)
	}
	if got := s.Faults().TotalFailures(); got != failures {
		t.Fatalf("FaultLog counts %d failures, the stream %d", got, failures)
	}
}

// mid returns the box midpoint of a problem — a always-valid input.
func mid(p problem.Problem) []float64 {
	lo, hi := p.Bounds()
	x := make([]float64, len(lo))
	for i := range x {
		x[i] = (lo[i] + hi[i]) / 2
	}
	return x
}
