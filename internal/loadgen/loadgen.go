// Package loadgen is the closed-loop load harness for a sharded MFBO
// deployment: it drives many concurrent optimization sessions through a
// gateway (or a single replica), measuring per-request latency, throughput
// and error rate, and audits the deployment's core promise — an acked
// observation is durable, wherever the session migrates.
//
// Closed-loop means each simulated client works exactly like a real one:
// create a session, then suggest → evaluate locally → observe until the
// budget is spent. A new request is issued only after the previous reply, so
// offered load adapts to the deployment's capacity instead of overrunning it
// (the harness measures sustainable latency, not queue explosion).
//
// Three classes of failure are distinguished:
//
//   - resync conflicts (no_pending_ask, tell_mismatch, budget-exhausted race)
//     are part of the protocol's at-least-once semantics — not errors;
//   - transient transport/5xx/wrong_owner failures are retried inside the
//     client and only count as errors if the retry budget runs dry;
//   - everything else fails the session and counts against the error-rate SLO.
//
// The lost-ack audit runs after every session: its final history must contain
// at least as many observations as the harness got acks for. A shortfall
// means a replica acked an observation and then lost it — the one invariant
// a kill-a-replica chaos run must never violate. Optionally a sample of
// sessions is re-run in-process (same seed, same config) and compared
// bit-for-bit, proving migrated sessions converged exactly as an undisturbed
// single-process run would have.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/server"
)

// Config shapes a load run.
type Config struct {
	// Target is the base URL of the gateway (or a single replica). Ignored
	// when Client is set.
	Target string
	// Client overrides the internally-built client (tests).
	Client *client.Client

	// Sessions is the number of optimization sessions to run (default 10).
	Sessions int
	// Concurrency caps how many sessions are in flight at once (default
	// min(Sessions, 16)).
	Concurrency int
	// Problem names the catalog problem every session optimizes (default
	// "forrester"). Each session gets a fresh instance and its own seed.
	Problem string
	// Budget is the per-session cost budget (default 4).
	Budget float64
	// Seed is the base RNG seed; session i runs with Seed+i.
	Seed int64
	// IDPrefix namespaces the session IDs (default "lg"). Distinct prefixes
	// let several harnesses share a deployment.
	IDPrefix string

	// Tuning mirrors the session-creation knobs (zero = harness fast
	// defaults, sized so a session completes in well under a second).
	InitLow, InitHigh       int
	MSPStarts, MSPLocalIter int
	GPMaxIter               int

	// VerifySample re-runs this many sessions in-process after the load run
	// and compares trajectories bit-for-bit (0 = skip).
	VerifySample int
	// Delete removes each session (and its persisted state) after its audit,
	// keeping long soak runs from accumulating state.
	Delete bool
	// Retries is the per-request transient-retry budget of the internal
	// client (default 8; ignored when Client is set).
	Retries int

	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Sessions <= 0 {
		c.Sessions = 10
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 16
	}
	if c.Concurrency > c.Sessions {
		c.Concurrency = c.Sessions
	}
	if c.Problem == "" {
		c.Problem = "forrester"
	}
	if c.Budget <= 0 {
		c.Budget = 4
	}
	if c.IDPrefix == "" {
		c.IDPrefix = "lg"
	}
	if c.InitLow <= 0 {
		c.InitLow = 8
	}
	if c.InitHigh <= 0 {
		c.InitHigh = 4
	}
	if c.MSPStarts <= 0 {
		c.MSPStarts = 4
	}
	if c.MSPLocalIter <= 0 {
		c.MSPLocalIter = 15
	}
	if c.GPMaxIter <= 0 {
		c.GPMaxIter = 30
	}
	if c.Retries <= 0 {
		c.Retries = 8
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// SLO are the gates a Result must clear. Zero-valued fields are unchecked;
// the durability invariants (no lost acked observation, no verification
// mismatch) are always enforced by Check.
type SLO struct {
	// MaxErrorRate is the tolerated fraction of requests that failed
	// terminally (after client-side retries).
	MaxErrorRate float64
	// MaxP50/MaxP95/MaxP99 bound the request latency quantiles.
	MaxP50, MaxP95, MaxP99 time.Duration
	// MinThroughput is the minimum completed sessions per second.
	MinThroughput float64
}

// Result summarizes a load run.
type Result struct {
	Sessions  int           `json:"sessions"`
	Completed int           `json:"completed"`
	Failed    int           `json:"failed"`
	Requests  int64         `json:"requests"`
	Errors    int64         `json:"errors"`
	Elapsed   time.Duration `json:"elapsed_ns"`

	P50, P95, P99 time.Duration `json:"-"`
	P50Seconds    float64       `json:"p50_seconds"`
	P95Seconds    float64       `json:"p95_seconds"`
	P99Seconds    float64       `json:"p99_seconds"`

	// Throughput is completed sessions per second; RequestRate is requests
	// per second.
	Throughput  float64 `json:"sessions_per_second"`
	RequestRate float64 `json:"requests_per_second"`

	// Acked counts observations the deployment acknowledged; Lost lists the
	// sessions whose final history held fewer observations than were acked —
	// the invariant violation the harness exists to catch.
	Acked int64    `json:"acked_observations"`
	Lost  []string `json:"lost_acked_sessions,omitempty"`

	// Verified counts sessions whose trajectory matched the in-process
	// reference bit-for-bit; VerifyMismatches describes the ones that did not.
	Verified         int      `json:"verified_sessions"`
	VerifyMismatches []string `json:"verify_mismatches,omitempty"`

	// SessionErrors holds the first few terminal per-session failures,
	// for diagnosis.
	SessionErrors []string `json:"session_errors,omitempty"`
}

// ErrorRate is Errors/Requests (0 when no requests were issued).
func (r *Result) ErrorRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Requests)
}

// Check validates the result against the SLO. It returns every violated gate
// joined into one error, nil when all pass. The durability invariants are
// checked unconditionally.
func (r *Result) Check(slo SLO) error {
	var errs []error
	if len(r.Lost) > 0 {
		errs = append(errs, fmt.Errorf("loadgen: %d session(s) lost acked observations: %v", len(r.Lost), r.Lost))
	}
	if len(r.VerifyMismatches) > 0 {
		errs = append(errs, fmt.Errorf("loadgen: %d session(s) diverged from the in-process reference: %v", len(r.VerifyMismatches), r.VerifyMismatches))
	}
	if slo.MaxErrorRate > 0 || r.Errors > 0 {
		if rate := r.ErrorRate(); rate > slo.MaxErrorRate {
			errs = append(errs, fmt.Errorf("loadgen: error rate %.4f > %.4f (%d/%d requests)", rate, slo.MaxErrorRate, r.Errors, r.Requests))
		}
	}
	for _, g := range []struct {
		name string
		got  time.Duration
		max  time.Duration
	}{{"p50", r.P50, slo.MaxP50}, {"p95", r.P95, slo.MaxP95}, {"p99", r.P99, slo.MaxP99}} {
		if g.max > 0 && g.got > g.max {
			errs = append(errs, fmt.Errorf("loadgen: %s latency %v > %v", g.name, g.got, g.max))
		}
	}
	if slo.MinThroughput > 0 && r.Throughput < slo.MinThroughput {
		errs = append(errs, fmt.Errorf("loadgen: throughput %.2f sessions/s < %.2f", r.Throughput, slo.MinThroughput))
	}
	return errors.Join(errs...)
}

// runner is the shared state of one load run.
type runner struct {
	cfg      Config
	cl       *client.Client
	hist     *Hist
	requests atomic.Int64
	errs     atomic.Int64
	acked    atomic.Int64

	mu        sync.Mutex
	lost      []string
	failures  []string
	completed int
	failed    int
}

// Run executes the load run and returns its measurements. The returned error
// covers harness-level failures only (bad config, cancelled context); SLO
// verdicts live in Result.Check so callers can inspect measurements either way.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if _, err := catalog.Lookup(cfg.Problem); err != nil {
		return nil, err
	}
	cl := cfg.Client
	if cl == nil {
		if cfg.Target == "" {
			return nil, errors.New("loadgen: Target or Client required")
		}
		cl = client.New(cfg.Target, client.WithRetries(cfg.Retries))
	}
	r := &runner{cfg: cfg, cl: cl, hist: NewHist()}

	start := time.Now()
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				r.session(ctx, i)
			}
		}()
	}
	for i := 0; i < cfg.Sessions; i++ {
		select {
		case indices <- i:
		case <-ctx.Done():
			i = cfg.Sessions // stop feeding; drain workers
		}
	}
	close(indices)
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{
		Sessions:  cfg.Sessions,
		Completed: r.completed,
		Failed:    r.failed,
		Requests:  r.requests.Load(),
		Errors:    r.errs.Load(),
		Elapsed:   elapsed,
		P50:       r.hist.Quantile(0.50),
		P95:       r.hist.Quantile(0.95),
		P99:       r.hist.Quantile(0.99),
		Acked:     r.acked.Load(),
		Lost:      r.lost,
	}
	res.P50Seconds, res.P95Seconds, res.P99Seconds = res.P50.Seconds(), res.P95.Seconds(), res.P99.Seconds()
	if s := elapsed.Seconds(); s > 0 {
		res.Throughput = float64(res.Completed) / s
		res.RequestRate = float64(res.Requests) / s
	}
	res.SessionErrors = r.failures
	if cfg.VerifySample > 0 {
		r.verify(ctx, res)
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// sessionID names session i of the run.
func (c Config) sessionID(i int) string { return fmt.Sprintf("%s-%05d", c.IDPrefix, i) }

// request builds the creation request for session i.
func (c Config) request(i int) api.CreateSessionRequest {
	return api.CreateSessionRequest{
		ID:           c.sessionID(i),
		Problem:      c.Problem,
		Seed:         c.Seed + int64(i),
		Budget:       c.Budget,
		InitLow:      c.InitLow,
		InitHigh:     c.InitHigh,
		MSPStarts:    c.MSPStarts,
		MSPLocalIter: c.MSPLocalIter,
		GPMaxIter:    c.GPMaxIter,
	}
}

// timed runs one request, recording its user-perceived latency (client-side
// retries included) and whether it terminally failed.
func (r *runner) timed(f func() error) error {
	start := time.Now()
	err := f()
	r.hist.Observe(time.Since(start))
	r.requests.Add(1)
	if err != nil && !isResync(err) {
		r.errs.Add(1)
	}
	return err
}

// isResync reports whether err is an expected at-least-once conflict rather
// than a failure: the suggestion was consumed concurrently, the ack was lost
// after ingestion, or the budget ran out between suggest and observe.
func isResync(err error) bool {
	return errors.Is(err, core.ErrNoPendingAsk) ||
		errors.Is(err, core.ErrTellMismatch) ||
		errors.Is(err, core.ErrBudgetExhausted)
}

// session drives one full optimization and audits it.
func (r *runner) session(ctx context.Context, i int) {
	id := r.cfg.sessionID(i)
	if err := r.drive(ctx, i, id); err != nil {
		r.mu.Lock()
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", id, err))
		}
		r.mu.Unlock()
		r.cfg.Logf("session %s failed: %v", id, err)
		return
	}
	r.mu.Lock()
	r.completed++
	done := r.completed
	r.mu.Unlock()
	if done%50 == 0 {
		r.cfg.Logf("%d/%d sessions complete", done, r.cfg.Sessions)
	}
}

func (r *runner) drive(ctx context.Context, i int, id string) error {
	p, err := catalog.Lookup(r.cfg.Problem) // fresh instance: problems may carry caches
	if err != nil {
		return err
	}
	if err := r.timed(func() error {
		_, e := r.cl.CreateSession(ctx, r.cfg.request(i))
		return e
	}); err != nil {
		return fmt.Errorf("create: %w", err)
	}
	var acks int64
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var sug api.Suggestion
		if err := r.timed(func() error {
			var e error
			sug, e = r.cl.Suggest(ctx, id)
			return e
		}); err != nil {
			return fmt.Errorf("suggest: %w", err)
		}
		if sug.Done {
			break
		}
		ev, everr := problem.EvaluateRich(p, sug.X, problem.Fidelity(sug.Fidelity))
		if everr != nil {
			ev.Failed = true
		}
		obErr := r.timed(func() error {
			_, e := r.cl.Observe(ctx, id, api.Observation{
				X:           sug.X,
				Fidelity:    sug.Fidelity,
				Objective:   ev.Objective,
				Constraints: ev.Constraints,
				Failed:      ev.Failed,
			})
			return e
		})
		switch {
		case obErr == nil:
			acks++
			r.acked.Add(1)
		case isResync(obErr):
			// Maybe ingested, maybe not: the idempotent Suggest re-syncs.
			// Deliberately NOT counted as an ack — the lost-ack audit only
			// asserts about observations the deployment acknowledged.
		default:
			return fmt.Errorf("observe: %w", obErr)
		}
	}

	// Lost-ack audit: everything acked must be in the final history.
	var hist api.HistoryReply
	if err := r.timed(func() error {
		var e error
		hist, e = r.cl.History(ctx, id)
		return e
	}); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if int64(len(hist.Observations)) < acks {
		r.mu.Lock()
		r.lost = append(r.lost, fmt.Sprintf("%s (acked %d, history %d)", id, acks, len(hist.Observations)))
		r.mu.Unlock()
	}
	if r.cfg.Delete {
		if err := r.timed(func() error { return r.cl.Delete(ctx, id) }); err != nil {
			return fmt.Errorf("delete: %w", err)
		}
	}
	return nil
}

// verify re-runs the first VerifySample sessions in-process and compares the
// remote trajectory bit-for-bit. Skipped for sessions that failed or were
// deleted.
func (r *runner) verify(ctx context.Context, res *Result) {
	if r.cfg.Delete {
		res.VerifyMismatches = append(res.VerifyMismatches, "verify requires Delete=false (histories gone)")
		return
	}
	n := r.cfg.VerifySample
	if n > r.cfg.Sessions {
		n = r.cfg.Sessions
	}
	for i := 0; i < n; i++ {
		id := r.cfg.sessionID(i)
		hist, err := r.cl.History(ctx, id)
		if err != nil {
			res.VerifyMismatches = append(res.VerifyMismatches, fmt.Sprintf("%s: history: %v", id, err))
			continue
		}
		p, err := catalog.Lookup(r.cfg.Problem)
		if err != nil {
			res.VerifyMismatches = append(res.VerifyMismatches, fmt.Sprintf("%s: %v", id, err))
			continue
		}
		ref, err := core.Optimize(p, server.CoreConfig(r.cfg.request(i)), rand.New(rand.NewSource(r.cfg.Seed+int64(i))))
		if err != nil {
			res.VerifyMismatches = append(res.VerifyMismatches, fmt.Sprintf("%s: reference run: %v", id, err))
			continue
		}
		if diff := diffHistory(hist.Observations, ref.History); diff != "" {
			res.VerifyMismatches = append(res.VerifyMismatches, fmt.Sprintf("%s: %s", id, diff))
			continue
		}
		res.Verified++
	}
	r.cfg.Logf("verified %d/%d sampled sessions bit-identical", res.Verified, n)
}

// diffHistory compares a remote history against an in-process reference
// bit-for-bit; "" means identical.
func diffHistory(hist []api.HistoryObservation, ref []core.Observation) string {
	if len(hist) != len(ref) {
		return fmt.Sprintf("length %d vs reference %d", len(hist), len(ref))
	}
	for i := range hist {
		h, want := hist[i], ref[i]
		if h.Fidelity != int(want.Fid) || h.Iter != want.Iter || h.Failed != want.Eval.Failed {
			return fmt.Sprintf("obs %d metadata differs", i)
		}
		if len(h.X) != len(want.X) || len(h.Constraints) != len(want.Eval.Constraints) {
			return fmt.Sprintf("obs %d shape differs", i)
		}
		for j := range h.X {
			if math.Float64bits(h.X[j]) != math.Float64bits(want.X[j]) {
				return fmt.Sprintf("obs %d x[%d] differs", i, j)
			}
		}
		if math.Float64bits(h.Objective) != math.Float64bits(want.Eval.Objective) {
			return fmt.Sprintf("obs %d objective differs", i)
		}
		for j := range h.Constraints {
			if math.Float64bits(h.Constraints[j]) != math.Float64bits(want.Eval.Constraints[j]) {
				return fmt.Sprintf("obs %d constraint %d differs", i, j)
			}
		}
		if math.Float64bits(h.CumCost) != math.Float64bits(want.CumCost) {
			return fmt.Sprintf("obs %d cumulative cost differs", i)
		}
	}
	return ""
}
