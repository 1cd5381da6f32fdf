package robust

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/problem"
	"repro/internal/telemetry"
)

func TestFaultLogRingOverwritesOldest(t *testing.T) {
	l := NewFaultLogCap(3)
	for i := 0; i < 5; i++ {
		l.recordRetry(problem.Low, i)
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("ring kept %d events, want 3", len(evs))
	}
	// Newest 3 survive, oldest-first, with monotone Seq exposing the gap.
	for i, ev := range evs {
		if ev.Attempt != i+2 {
			t.Fatalf("events[%d].Attempt = %d, want %d", i, ev.Attempt, i+2)
		}
		if ev.Kind != FaultRetry || ev.Fidelity != problem.Low {
			t.Fatalf("events[%d] = %+v", i, ev)
		}
	}
	if evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Fatalf("seq range = %d..%d, want 3..5", evs[0].Seq, evs[2].Seq)
	}
	if l.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", l.Dropped())
	}
}

func TestFaultLogSeqDetectsGaps(t *testing.T) {
	l := NewFaultLogCap(2)
	l.recordError(problem.Low, errors.New("a"), 0)
	l.recordError(problem.High, errors.New("b"), 0)
	l.recordFailure(problem.High, 1, errors.New("c"))
	evs := l.Events()
	if len(evs) != 2 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[1].Seq-evs[0].Seq != 1 {
		t.Fatal("surviving events must be consecutive")
	}
	if evs[0].Seq != 2 {
		t.Fatalf("first surviving seq = %d, want 2 (seq 1 overwritten)", evs[0].Seq)
	}
	if evs[1].Kind != FaultFailure || evs[1].Err != "c" {
		t.Fatalf("events[1] = %+v", evs[1])
	}
}

func TestFaultLogDisabledRingStillCounts(t *testing.T) {
	l := NewFaultLogCap(-1)
	l.recordRetry(problem.Low, 0)
	l.recordFailure(problem.Low, 1, errors.New("x"))
	if len(l.Events()) != 0 {
		t.Fatal("disabled ring must keep no events")
	}
	if l.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2 (every event counted)", l.Dropped())
	}
	if l.TotalRetries() != 1 || l.TotalFailures() != 1 {
		t.Fatal("counters must keep working with the ring disabled")
	}
}

func TestFaultLogConcurrent(t *testing.T) {
	l := NewFaultLogCap(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.recordRetry(problem.Low, i)
				if i%25 == 0 {
					_ = l.Events()
					_ = l.Dropped()
					_ = l.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := len(l.Events()); got != 16 {
		t.Fatalf("ring len = %d", got)
	}
	if l.Dropped() != 800-16 {
		t.Fatalf("dropped = %d, want %d", l.Dropped(), 800-16)
	}
	if l.TotalRetries() != 800 {
		t.Fatalf("retries = %d", l.TotalRetries())
	}
}

// TestWrapFaultEventsAndTelemetry drives scripted failures through the safe
// wrapper and checks (a) the FaultLog ring keeps DefaultFaultEventCap
// events, overwriting and counting the oldest, and (b) every retry/failure
// is mirrored into the telemetry event stream alongside a "robust.evaluate"
// span.
func TestWrapFaultEventsAndTelemetry(t *testing.T) {
	clock := &fakeClock{}
	ring := telemetry.NewRing(4 * DefaultFaultEventCap)
	rec := telemetry.NewRecorder(ring, 1)
	// Script: eval 1 fails once then succeeds (error + retry events); each
	// of the next fails evaluations fails terminally (MaxRetries=1: error,
	// retry, error, failure), two events more than the ring holds.
	fails := DefaultFaultEventCap / 4
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

	// FaultLog ring: full at DefaultFaultEventCap, newest kept, the two
	// overwritten events counted.
	evs := s.Faults().Events()
	if len(evs) != DefaultFaultEventCap {
		t.Fatalf("fault ring len = %d, want %d", len(evs), DefaultFaultEventCap)
	}
	if evs[len(evs)-1].Kind != FaultFailure {
		t.Fatalf("newest fault = %+v, want terminal failure", evs[len(evs)-1])
	}
	if d := s.Faults().Dropped(); d != 2 {
		t.Fatalf("dropped = %d, want the 2 overwritten fault events", d)
	}

	// Telemetry mirror: retry events for both evaluations, one failure, and
	// robust.evaluate spans with the failed attempt annotated.
	var retries, failures, spans int
	for _, ev := range ring.Snapshot() {
		switch {
		case ev.Fault != nil && ev.Fault.Kind == string(FaultRetry):
			retries++
			if ev.Fault.Fidelity != "low" {
				t.Fatalf("fault fidelity = %q", ev.Fault.Fidelity)
			}
		case ev.Fault != nil && ev.Fault.Kind == string(FaultFailure):
			failures++
			if ev.Fault.Err == "" {
				t.Fatal("terminal failure event must carry the error")
			}
		case ev.Span != nil && ev.Span.Name == "robust.evaluate":
			spans++
		}
	}
	if retries != 1+fails || failures != fails || spans != 1+fails {
		t.Fatalf("telemetry mirror: %d retries, %d failures, %d spans", retries, failures, spans)
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
