package robust

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/problem"
	"repro/internal/testfunc"
)

// flaky is a hand-steered problem: the outcomes channel scripts what each
// successive Evaluate call does.
type flaky struct {
	problem.Problem
	mu    sync.Mutex
	calls int
	// script[i] controls call i: "ok", "nan", "panic", or "hang".
	script []string
	hang   time.Duration
	lastX  []float64
}

func newFlaky(script ...string) *flaky {
	return &flaky{Problem: testfunc.ConstrainedSynthetic(), script: script, hang: 50 * time.Millisecond}
}

func (f *flaky) Evaluate(x []float64, fid problem.Fidelity) problem.Evaluation {
	f.mu.Lock()
	i := f.calls
	f.calls++
	f.lastX = append([]float64(nil), x...)
	f.mu.Unlock()
	mode := "ok"
	if i < len(f.script) {
		mode = f.script[i]
	}
	switch mode {
	case "panic":
		panic("flaky: scripted panic")
	case "nan":
		return problem.Evaluation{Objective: math.NaN(), Constraints: []float64{-1}}
	case "inf":
		return problem.Evaluation{Objective: 1, Constraints: []float64{math.Inf(1)}}
	case "hang":
		time.Sleep(f.hang)
	}
	return f.Problem.Evaluate(x, fid)
}

func (f *flaky) numCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// fakeClock records backoff sleeps instead of sleeping.
type fakeClock struct {
	mu     sync.Mutex
	sleeps []time.Duration
}

func (c *fakeClock) sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps = append(c.sleeps, d)
}

func TestBackoffSchedule(t *testing.T) {
	pol := Policy{BackoffBase: 10 * time.Millisecond, BackoffMax: 70 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		70 * time.Millisecond, 70 * time.Millisecond,
	}
	for i, w := range want {
		if got := Backoff(i, pol); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestRetryWithDeterministicClock(t *testing.T) {
	clock := &fakeClock{}
	f := newFlaky("panic", "nan", "ok")
	sp := Wrap(f, Policy{
		MaxRetries:  3,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  40 * time.Millisecond,
		Sleep:       clock.sleep,
	})
	ev, err := sp.EvaluateRich([]float64{0.5, 0.5}, problem.Low)
	if err != nil {
		t.Fatalf("expected eventual success, got %v", err)
	}
	if ev.Failed {
		t.Fatal("successful retry must not be marked Failed")
	}
	if f.numCalls() != 3 {
		t.Fatalf("wanted 3 attempts, saw %d", f.numCalls())
	}
	wantSleeps := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond}
	clock.mu.Lock()
	defer clock.mu.Unlock()
	if len(clock.sleeps) != len(wantSleeps) {
		t.Fatalf("sleeps = %v, want %v", clock.sleeps, wantSleeps)
	}
	for i := range wantSleeps {
		if clock.sleeps[i] != wantSleeps[i] {
			t.Fatalf("sleep %d = %v, want %v", i, clock.sleeps[i], wantSleeps[i])
		}
	}
	snap := sp.Faults().Snapshot()["low"]
	if snap.Attempts != 3 || snap.Successes != 1 || snap.Retries != 2 || snap.Failures != 0 {
		t.Fatalf("fault counts %+v", snap)
	}
	if snap.Panics != 1 || snap.NonFinite != 1 {
		t.Fatalf("fault classification %+v", snap)
	}
}

func TestPanicRecoveryTerminal(t *testing.T) {
	clock := &fakeClock{}
	f := newFlaky("panic", "panic", "panic", "panic")
	sp := Wrap(f, Policy{MaxRetries: 2, Sleep: clock.sleep})
	ev, err := sp.EvaluateRich([]float64{0.5, 0.5}, problem.High)
	if err == nil {
		t.Fatal("expected terminal failure")
	}
	var pe PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %T %v", err, err)
	}
	if !ev.Failed {
		t.Fatal("terminal failure must set Failed")
	}
	if ev.Feasible() {
		t.Fatal("penalty evaluation must be infeasible")
	}
	if !ev.IsFinite() {
		t.Fatal("penalty evaluation must stay finite")
	}
	if got := sp.Faults().Snapshot()["high"]; got.Failures != 1 || got.Panics != 3 {
		t.Fatalf("fault counts %+v", got)
	}
}

func TestNaNSanitization(t *testing.T) {
	clock := &fakeClock{}
	// All attempts return NaN: sanitization must classify, retry, then fail.
	f := newFlaky("nan", "inf", "nan")
	sp := Wrap(f, Policy{MaxRetries: 2, Sleep: clock.sleep})
	ev, err := sp.EvaluateRich([]float64{0.4, 0.4}, problem.Low)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("want ErrNonFinite, got %v", err)
	}
	if !ev.Failed || !ev.IsFinite() {
		t.Fatalf("penalty not well-formed: %+v", ev)
	}
	if ev.Objective != problem.PenaltyObjective {
		t.Fatalf("objective %v, want penalty", ev.Objective)
	}
	snap := sp.Faults().Snapshot()["low"]
	if snap.NonFinite != 3 || snap.Failures != 1 {
		t.Fatalf("fault counts %+v", snap)
	}
}

func TestJitterStaysInBounds(t *testing.T) {
	clock := &fakeClock{}
	f := newFlaky("panic", "panic", "panic", "panic", "panic", "panic")
	sp := Wrap(f, Policy{MaxRetries: 5, Sleep: clock.sleep, Seed: 7})
	lo, hi := f.Bounds()
	// Start at a corner so jitter would overflow without clamping: every
	// retry pushes each coordinate below lo with probability 1/2.
	sp.EvaluateRich(lo, problem.Low)
	f.mu.Lock()
	x := f.lastX
	f.mu.Unlock()
	for i := range x {
		if x[i] < lo[i] || x[i] > hi[i] {
			t.Fatalf("jittered point %v escaped bounds [%v, %v]", x, lo, hi)
		}
	}
}

func TestTimeoutEnforced(t *testing.T) {
	clock := &fakeClock{}
	f := newFlaky("hang", "hang", "hang")
	f.hang = 200 * time.Millisecond
	sp := Wrap(f, Policy{MaxRetries: 1, Timeout: 20 * time.Millisecond, Sleep: clock.sleep})
	start := time.Now()
	_, err := sp.EvaluateRich([]float64{0.5, 0.5}, problem.Low)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("timeout not enforced promptly: %v", elapsed)
	}
	if got := sp.Faults().Snapshot()["low"]; got.Timeouts != 2 {
		t.Fatalf("timeout count %+v", got)
	}
}

func TestContextCancellationSkipsRetries(t *testing.T) {
	clock := &fakeClock{}
	f := newFlaky("hang", "hang", "hang")
	f.hang = time.Second
	sp := Wrap(f, Policy{MaxRetries: 5, Sleep: clock.sleep})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	ev, err := sp.EvaluateCtx(ctx, []float64{0.5, 0.5}, problem.Low)
	if err == nil {
		t.Fatal("cancelled evaluation must fail")
	}
	if !ev.Failed {
		t.Fatal("cancelled evaluation must carry the penalty marker")
	}
	if f.numCalls() != 1 {
		t.Fatalf("cancellation must not retry: %d calls", f.numCalls())
	}
}

func TestSafeProblemDelegates(t *testing.T) {
	inner := testfunc.ConstrainedSynthetic()
	sp := Wrap(inner, Policy{})
	if sp.Name() != inner.Name() || sp.Dim() != inner.Dim() ||
		sp.NumConstraints() != inner.NumConstraints() {
		t.Fatal("metadata not delegated")
	}
	if sp.Cost(problem.Low) != inner.Cost(problem.Low) || sp.Cost(problem.High) != inner.Cost(problem.High) {
		t.Fatal("cost not delegated")
	}
	if sp.Unwrap() != problem.Problem(inner) {
		t.Fatal("Unwrap must return the inner problem")
	}
	// Clean problem: plain Evaluate path, no faults recorded.
	e := sp.Evaluate([]float64{0.5, 0.5}, problem.High)
	want := inner.Evaluate([]float64{0.5, 0.5}, problem.High)
	if e.Objective != want.Objective {
		t.Fatalf("objective %v, want %v", e.Objective, want.Objective)
	}
	if sp.Faults().TotalFailures() != 0 {
		t.Fatal("clean evaluation recorded a failure")
	}
}

func TestBadPointIsRejectedWithoutSimulating(t *testing.T) {
	f := newFlaky()
	sp := Wrap(f, Policy{})
	ev, err := sp.EvaluateRich([]float64{math.NaN(), 0.5}, problem.Low)
	if err == nil || !ev.Failed {
		t.Fatal("NaN input must fail fast")
	}
	if f.numCalls() != 0 {
		t.Fatal("NaN input must not reach the simulator")
	}
}
