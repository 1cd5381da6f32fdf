// Package robust is the fault-tolerant evaluation runtime around
// problem.Problem. Real SPICE-class evaluations fail routinely — Newton
// non-convergence, panics on malformed netlists, hangs on pathological
// corners, NaN/±Inf measurements — and the optimizer must treat such failures
// as a first-class signal rather than crash (GASPAD-style penalization; see
// DESIGN.md "Failure handling & resume").
//
// Wrap(p, policy) returns a SafeProblem that
//
//   - recovers panics raised by the wrapped Evaluate,
//   - sanitizes non-finite outputs (NaN/±Inf become failures),
//   - retries transient failures with capped exponential backoff and a tiny
//     input jitter to escape numerically degenerate points,
//   - enforces a per-evaluation timeout via context.Context,
//   - records a per-fidelity FaultLog (counts, causes, last error), and
//   - surfaces terminally failed evaluations as the well-defined infeasible
//     penalty problem.PenaltyEvaluation.
//
// SafeProblem implements problem.Problem (so every optimizer in the repo can
// consume it unchanged), problem.RichEvaluator (so core.OptimizeCtx can
// exclude failures from surrogate training) and problem.ContextEvaluator (so
// cancellation reaches the evaluation boundary).
package robust

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/problem"
	"repro/internal/telemetry"
)

// Sentinel errors classifying evaluation failures.
var (
	// ErrTimeout marks an evaluation that exceeded Policy.Timeout.
	ErrTimeout = errors.New("robust: evaluation timed out")
	// ErrNonFinite marks an evaluation whose outputs contained NaN or ±Inf.
	ErrNonFinite = errors.New("robust: non-finite evaluation outputs")
)

// PanicError wraps a value recovered from a panicking Evaluate.
type PanicError struct{ Value any }

// Error implements error.
func (e PanicError) Error() string { return fmt.Sprintf("robust: evaluation panicked: %v", e.Value) }

func isPanicError(err error) bool { var pe PanicError; return errors.As(err, &pe) }
func isTimeoutError(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, context.DeadlineExceeded)
}
func isNonFiniteError(err error) bool { return errors.Is(err, ErrNonFinite) }

// Policy tunes the fault-tolerance wrapper. The zero value selects sensible
// defaults for deterministic in-process simulators.
type Policy struct {
	// MaxRetries is the number of re-attempts after the first failure
	// (default 2; set negative for zero retries).
	MaxRetries int
	// BackoffBase / BackoffMax shape the capped exponential backoff between
	// attempts: attempt k sleeps min(BackoffBase·2ᵏ, BackoffMax)
	// (defaults 10 ms / 1 s).
	BackoffBase, BackoffMax time.Duration
	// Timeout bounds each attempt's wall-clock time (0 = unbounded). When an
	// attempt times out the evaluation goroutine is abandoned — acceptable
	// for the in-process simulator, mandatory reading for anyone wrapping an
	// external process.
	Timeout time.Duration
	// Sleep is the backoff clock, injectable for deterministic tests
	// (default time.Sleep).
	Sleep func(time.Duration)
	// Seed seeds the jitter RNG (default 1).
	Seed int64
	// Telemetry, when non-nil, receives a "robust.evaluate" trace span per
	// evaluation (attempts/fidelity/outcome annotated) and a fault event per
	// retry and terminal failure. nil is a zero-overhead no-op and never
	// changes evaluation results.
	Telemetry *telemetry.Recorder
}

func (p Policy) withDefaults() Policy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 2
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 10 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = time.Second
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Backoff returns the sleep before retry number attempt (0-based):
// min(BackoffBase·2^attempt, BackoffMax). Exported so the retry schedule is
// testable in isolation.
func Backoff(attempt int, pol Policy) time.Duration {
	pol = pol.withDefaults()
	d := pol.BackoffBase
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= pol.BackoffMax {
			return pol.BackoffMax
		}
	}
	if d > pol.BackoffMax {
		return pol.BackoffMax
	}
	return d
}

// SafeProblem is the fault-tolerant view of a wrapped problem. See the
// package comment for the guarantees.
type SafeProblem struct {
	inner problem.Problem
	pol   Policy
	log   *FaultLog

	lo, hi []float64

	mu  sync.Mutex
	rng *rand.Rand
}

var (
	_ problem.Problem          = (*SafeProblem)(nil)
	_ problem.RichEvaluator    = (*SafeProblem)(nil)
	_ problem.ContextEvaluator = (*SafeProblem)(nil)
)

// Wrap builds the fault-tolerant wrapper around p.
func Wrap(p problem.Problem, pol Policy) *SafeProblem {
	pol = pol.withDefaults()
	lo, hi := p.Bounds()
	return &SafeProblem{
		inner: p,
		pol:   pol,
		log:   NewFaultLog(),
		lo:    lo, hi: hi,
		rng: rand.New(rand.NewSource(pol.Seed)),
	}
}

// Name implements problem.Problem (the inner name is kept so logs and tables
// stay comparable).
func (s *SafeProblem) Name() string { return s.inner.Name() }

// Dim implements problem.Problem.
func (s *SafeProblem) Dim() int { return s.inner.Dim() }

// Bounds implements problem.Problem.
func (s *SafeProblem) Bounds() (lo, hi []float64) { return s.inner.Bounds() }

// NumConstraints implements problem.Problem.
func (s *SafeProblem) NumConstraints() int { return s.inner.NumConstraints() }

// Cost implements problem.Problem.
func (s *SafeProblem) Cost(f problem.Fidelity) float64 { return s.inner.Cost(f) }

// Unwrap returns the wrapped problem.
func (s *SafeProblem) Unwrap() problem.Problem { return s.inner }

// Faults returns the live fault log (safe for concurrent reads via
// Snapshot/String).
func (s *SafeProblem) Faults() *FaultLog { return s.log }

// Evaluate implements problem.Problem: like EvaluateRich but the failure
// signal is folded into the returned penalty evaluation, so plain-Problem
// consumers (baselines, examples) get crash-free behavior for free.
func (s *SafeProblem) Evaluate(x []float64, f problem.Fidelity) problem.Evaluation {
	e, _ := s.EvaluateCtx(context.Background(), x, f)
	return e
}

// EvaluateRich implements problem.RichEvaluator.
func (s *SafeProblem) EvaluateRich(x []float64, f problem.Fidelity) (problem.Evaluation, error) {
	return s.EvaluateCtx(context.Background(), x, f)
}

// EvaluateCtx implements problem.ContextEvaluator: the full retry pipeline.
// On terminal failure the returned evaluation is
// problem.PenaltyEvaluation(nc) and the error explains the last cause.
func (s *SafeProblem) EvaluateCtx(ctx context.Context, x []float64, f problem.Fidelity) (problem.Evaluation, error) {
	span := s.pol.Telemetry.StartSpan("robust.evaluate")
	span.Attr("fidelity", float64(f))
	span.Attr("rung", float64(f))
	if err := problem.CheckPoint(s.inner, x); err != nil {
		s.log.recordError(f, err)
		s.log.recordFailure(f)
		s.emitFault(f, faultFailure, 0, err)
		span.Attr("failed", 1)
		span.End()
		return problem.PenaltyEvaluation(s.NumConstraints()), err
	}
	xTry := append([]float64(nil), x...)
	var lastErr error
	attempt := 0
	for ; ; attempt++ {
		s.log.recordAttempt(f)
		ev, err := s.attempt(ctx, xTry, f)
		if err == nil && !ev.IsFinite() {
			err = ErrNonFinite
		}
		if err == nil {
			s.log.recordSuccess(f)
			span.Attr("attempts", float64(attempt+1))
			span.End()
			return ev, nil
		}
		s.log.recordError(f, err)
		lastErr = err
		// Context cancellation is not transient: give up immediately.
		if ctx.Err() != nil || attempt >= s.pol.MaxRetries {
			break
		}
		s.log.recordRetry(f)
		s.emitFault(f, faultRetry, attempt, err)
		s.pol.Sleep(Backoff(attempt, s.pol))
		xTry = s.jitter(xTry)
	}
	s.log.recordFailure(f)
	s.emitFault(f, faultFailure, attempt, lastErr)
	span.Attr("attempts", float64(attempt+1))
	span.Attr("failed", 1)
	span.End()
	return problem.PenaltyEvaluation(s.NumConstraints()), lastErr
}

// The kinds of telemetry fault event a SafeProblem emits.
const (
	faultRetry   = "retry"   // a failed attempt is about to be retried after backoff
	faultFailure = "failure" // an evaluation exhausted its retry budget
)

// emitFault reports one retry or terminal failure on the telemetry event
// stream.
func (s *SafeProblem) emitFault(f problem.Fidelity, kind string, attempt int, err error) {
	if s.pol.Telemetry == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = cause(err)
	}
	s.pol.Telemetry.Emit(telemetry.Event{
		Type: telemetry.EventFault,
		Fault: &telemetry.FaultEvent{
			Fidelity: f.String(), Kind: kind, Attempt: attempt, Err: msg,
		},
	})
}

// attempt runs one guarded evaluation: panic recovery always, timeout and
// cancellation enforcement when configured.
func (s *SafeProblem) attempt(ctx context.Context, x []float64, f problem.Fidelity) (ev problem.Evaluation, err error) {
	if s.pol.Timeout <= 0 && ctx.Done() == nil {
		// Fast path: synchronous call with panic recovery only.
		defer func() {
			if r := recover(); r != nil {
				ev, err = problem.Evaluation{}, PanicError{Value: r}
			}
		}()
		return s.evalInner(x, f)
	}
	if s.pol.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.pol.Timeout)
		defer cancel()
	}
	type outcome struct {
		ev  problem.Evaluation
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: PanicError{Value: r}}
			}
		}()
		e, err := s.evalInner(x, f)
		ch <- outcome{ev: e, err: err}
	}()
	select {
	case out := <-ch:
		return out.ev, out.err
	case <-ctx.Done():
		// The evaluation goroutine is abandoned; it will send into the
		// buffered channel and be collected.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return problem.Evaluation{}, ErrTimeout
		}
		return problem.Evaluation{}, ctx.Err()
	}
}

// evalInner prefers the inner problem's rich interface when present so that
// explicit failure signals (e.g. chaos injection) are classified as errors
// rather than penalty values.
func (s *SafeProblem) evalInner(x []float64, f problem.Fidelity) (problem.Evaluation, error) {
	if re, ok := s.inner.(problem.RichEvaluator); ok {
		return re.EvaluateRich(x, f)
	}
	return s.inner.Evaluate(x, f), nil
}

// jitterFrac scales the uniform perturbation a retried input receives, as a
// fraction of each coordinate's box width.
const jitterFrac = 1e-3

// jitter perturbs each coordinate by U(−jitterFrac, +jitterFrac)·width,
// clamped to the box.
func (s *SafeProblem) jitter(x []float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]float64(nil), x...)
	for i := range out {
		w := s.hi[i] - s.lo[i]
		out[i] += (2*s.rng.Float64() - 1) * jitterFrac * w
		if out[i] < s.lo[i] {
			out[i] = s.lo[i]
		}
		if out[i] > s.hi[i] {
			out[i] = s.hi[i]
		}
	}
	return out
}
