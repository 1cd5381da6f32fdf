// Package torture is the full-stack chaos harness: it runs an optimization
// service through repeated SIGKILL-style crash/restart cycles — with storage
// faults injected underneath (see storage.Chaos) and, optionally, network
// faults in front (see Proxy) — while checking the crash-consistency
// contract from the outside:
//
//   - No acknowledged observation is ever lost: a report the service acked
//     was durably checkpointed first, so it must still be there after any
//     crash.
//   - No double work: a suggestion whose report was acked is never offered
//     to a worker again.
//   - Liveness: despite every fault, the run eventually converges (budget
//     exhausted, session done).
//
// The harness drives any DaemonController — InProc restarts a server.Server
// inside the test process (used by the -race torture test), while
// cmd/mfbo-chaos implements the same interface around a real child process
// and real SIGKILLs.
package torture

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/dispatch"
	"repro/internal/problem"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Options tunes one torture run.
type Options struct {
	// Session is the pinned session ID (default "torture").
	Session string
	// Problem is the catalog problem name (default "constrained" — cheap,
	// constrained, multi-fidelity).
	Problem string
	// Budget / InitLow / InitHigh size the run (defaults 16.3 / 80 / 8:
	// ~90 observations, almost all cheap design points — enough capacity
	// that every kill cycle can ack up to Workers evaluations and the
	// budget still lasts past Cycles restarts).
	Budget            float64
	InitLow, InitHigh int
	// Batch is the session's in-flight suggestion width (default 3).
	Batch int
	// Seed seeds the session's trajectory (default 11).
	Seed int64
	// Workers is the number of concurrent evaluator loops (default 3).
	Workers int
	// Cycles is the number of kill/restart cycles before the final,
	// kill-free convergence pass (default 25).
	Cycles int
	// AcksPerCycle is how many fresh acks a cycle waits for before killing
	// the daemon (default 1).
	AcksPerCycle int
	// BetweenCycles, when non-nil, runs after each kill with the 0-based
	// cycle index — the hook tests use to corrupt storage heads between
	// process lifetimes.
	BetweenCycles func(cycle int)
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.Session == "" {
		o.Session = "torture"
	}
	if o.Problem == "" {
		o.Problem = "constrained"
	}
	if o.Budget <= 0 {
		o.Budget = 16.3
	}
	if o.InitLow <= 0 {
		o.InitLow = 80
	}
	if o.InitHigh <= 0 {
		o.InitHigh = 8
	}
	if o.Batch <= 0 {
		o.Batch = 3
	}
	if o.Seed == 0 {
		o.Seed = 11
	}
	if o.Workers <= 0 {
		o.Workers = 3
	}
	if o.Cycles <= 0 {
		o.Cycles = 25
	}
	if o.AcksPerCycle <= 0 {
		o.AcksPerCycle = 1
	}
}

// Report is the outcome of a torture run.
type Report struct {
	// Kills counts crash/restart cycles actually executed.
	Kills int
	// Acked counts distinct suggestions acknowledged non-duplicate — each is
	// one observation the service promised was durable.
	Acked int
	// Duplicates counts duplicate acks (idempotent retries, requeue races).
	Duplicates int
	// Violations lists every broken invariant; empty means the contract held.
	Violations []string
	// FinalObs is the session's observation count after convergence.
	FinalObs int
	// Converged reports whether the run finished (budget exhausted).
	Converged bool
}

// DaemonController abstracts "the service process" for the harness: Start
// brings a daemon up over the same durable state as the previous lifetime
// and returns its base URL; Kill tears it down abruptly (SIGKILL semantics —
// no goodbye writes).
type DaemonController interface {
	Start() (string, error)
	Kill()
}

// harness carries the cross-cycle invariant state.
type harness struct {
	opt Options
	ctl DaemonController

	mu         sync.Mutex
	acked      map[string]bool // suggestion IDs acked non-duplicate
	dups       int
	violations []string
	cycleAcks  int
	done       bool // session reported done
}

func (h *harness) logf(format string, args ...any) {
	if h.opt.Logf != nil {
		h.opt.Logf(format, args...)
	}
}

func (h *harness) violate(format string, args ...any) {
	h.mu.Lock()
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

// Run executes the torture schedule: opt.Cycles kill/restart cycles, then
// one kill-free pass that must converge. The returned Report is non-nil even
// on error.
func Run(ctx context.Context, ctl DaemonController, opt Options) (*Report, error) {
	opt.defaults()
	h := &harness{opt: opt, ctl: ctl, acked: make(map[string]bool)}
	rep := &Report{}

	for cycle := 0; cycle < opt.Cycles && !h.isDone(); cycle++ {
		if err := h.cycle(ctx, cycle, opt.AcksPerCycle, true); err != nil {
			return h.fill(rep), err
		}
		rep.Kills++
		if opt.BetweenCycles != nil {
			opt.BetweenCycles(cycle)
		}
	}

	// Final lifetime: no kill, run until the session converges. A worker can
	// observe "done" (budget gate) while a sibling's last report is still in
	// flight, so a pass may end with the engine one observation short of
	// terminal — rerun until the session itself reports phase done (the
	// janitor requeues any lease stranded by the early cancellation).
	var st api.StatusReply
	for round := 0; ; round++ {
		if err := h.cycle(ctx, opt.Cycles+round, int(1e9), false); err != nil {
			return h.fill(rep), err
		}
		var err error
		st, err = h.finalStatus(ctx)
		if err != nil {
			return h.fill(rep), err
		}
		if st.Phase == "done" || round >= 9 {
			break
		}
		h.mu.Lock()
		h.done = false
		h.mu.Unlock()
		sleepCtx(ctx, 250*time.Millisecond)
	}
	rep.FinalObs = st.Observations
	rep.Converged = st.Phase == "done"
	h.mu.Lock()
	if st.Observations < len(h.acked) {
		h.violations = append(h.violations, fmt.Sprintf(
			"final history has %d observations, %d were acked", st.Observations, len(h.acked)))
	}
	h.mu.Unlock()
	return h.fill(rep), nil
}

func (h *harness) fill(rep *Report) *Report {
	h.mu.Lock()
	defer h.mu.Unlock()
	rep.Acked = len(h.acked)
	rep.Duplicates = h.dups
	rep.Violations = append([]string(nil), h.violations...)
	return rep
}

func (h *harness) isDone() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.done
}

// cycle runs one daemon lifetime: start, (re)attach the session, serve
// evaluations until quota acks landed (or the session finished), then kill —
// unless kill is false, in which case the lifetime ends only on completion.
func (h *harness) cycle(ctx context.Context, cycle, quota int, kill bool) error {
	baseURL, err := h.ctl.Start()
	if err != nil {
		return fmt.Errorf("torture: start cycle %d: %w", cycle, err)
	}
	cli := client.New(baseURL, client.WithRetries(3), client.WithBackoff(2*time.Millisecond, 50*time.Millisecond))
	if err := h.attach(ctx, cli, cycle > 0); err != nil {
		return fmt.Errorf("torture: attach cycle %d: %w", cycle, err)
	}

	h.mu.Lock()
	h.cycleAcks = 0
	h.mu.Unlock()

	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for i := 0; i < h.opt.Workers; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			h.worker(wctx, cancel, cli, name, quota)
		}(fmt.Sprintf("tw%d", i))
	}
	wg.Wait()
	cancel()
	if kill {
		h.ctl.Kill()
		h.mu.Lock()
		n, acks := len(h.acked), h.cycleAcks
		h.mu.Unlock()
		h.logf("torture: cycle %d killed daemon (+%d acks, %d total)", cycle, acks, n)
	}
	return ctx.Err()
}

// attach creates (cycle 0) or resumes the torture session, retrying through
// injected faults: a 500 here just means the storage engine refused a write
// or read this instant.
func (h *harness) attach(ctx context.Context, cli *client.Client, resume bool) error {
	req := api.CreateSessionRequest{
		ID:           h.opt.Session,
		Problem:      h.opt.Problem,
		Seed:         h.opt.Seed,
		Budget:       h.opt.Budget,
		InitLow:      h.opt.InitLow,
		InitHigh:     h.opt.InitHigh,
		Batch:        h.opt.Batch,
		MSPStarts:    2,
		MSPLocalIter: 10,
		GPMaxIter:    25,
		Resume:       resume,
	}
	var lastErr error
	for attempt := 0; attempt < 200; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		_, lastErr = cli.CreateSession(ctx, req)
		if lastErr == nil {
			return nil
		}
		// A fresh create that raced a durable manifest (the previous attempt's
		// ack was lost) must fall back to resuming it.
		var apiErr *client.APIError
		if !resume && errors.As(lastErr, &apiErr) && apiErr.Code == api.CodeConflict {
			req.Resume = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("session attach never succeeded: %w", lastErr)
}

// worker is one evaluator loop: lease → evaluate → report (with an
// idempotency key, retrying until acked). It checks the no-double-offer
// invariant on every grant and stops once the cycle quota is reached.
func (h *harness) worker(ctx context.Context, quotaHit context.CancelFunc, cli *client.Client, name string, quota int) {
	p, err := catalog.Lookup(h.opt.Problem)
	if err != nil {
		h.violate("worker %s: %v", name, err)
		return
	}
	for ctx.Err() == nil {
		lease, err := cli.Lease(ctx, h.opt.Session, api.LeaseRequest{Worker: name})
		switch {
		case err != nil:
			sleepCtx(ctx, 3*time.Millisecond)
			continue
		case lease.Done:
			sctx, scancel := context.WithTimeout(context.Background(), time.Second)
			if st, err := cli.Status(sctx, h.opt.Session); err == nil {
				h.logf("torture: worker %s saw done (reason %q) at status obs=%d cost=%.2f/%.2f phase=%q iter=%d lo=%d hi=%d",
					name, lease.Reason, st.Observations, st.Cost, st.Budget, st.Phase, st.Iter, st.NumLow, st.NumHigh)
			} else {
				h.logf("torture: worker %s saw done (reason %q); status: %v", name, lease.Reason, err)
			}
			scancel()
			h.mu.Lock()
			h.done = true
			h.mu.Unlock()
			quotaHit()
			return
		case lease.None:
			sleepCtx(ctx, 3*time.Millisecond)
			continue
		}
		h.mu.Lock()
		if h.acked[lease.SuggestionID] {
			h.violations = append(h.violations, fmt.Sprintf(
				"suggestion %s offered again after its report was acked", lease.SuggestionID))
		}
		h.mu.Unlock()

		ev := p.Evaluate(lease.X, problem.Fidelity(lease.Fidelity))
		h.report(ctx, quotaHit, cli, &lease, ev, quota)
	}
}

// report delivers one evaluation, retrying with the same idempotency key
// until the service acks it (or the cycle ends). Only a non-duplicate ack
// counts toward the durability ledger.
func (h *harness) report(ctx context.Context, quotaHit context.CancelFunc, cli *client.Client, lease *api.LeaseReply, ev problem.Evaluation, quota int) {
	req := api.ReportRequest{
		LeaseID:        lease.LeaseID,
		SuggestionID:   lease.SuggestionID,
		Objective:      ev.Objective,
		Constraints:    ev.Constraints,
		Failed:         ev.Failed,
		IdempotencyKey: lease.SuggestionID + "/" + strconv.Itoa(lease.Attempt),
	}
	for ctx.Err() == nil {
		// Each POST runs on its own short detached context: once an
		// evaluation is finished its report must not be torn down by the
		// cycle ending (a cancelled POST can still be processed server-side,
		// silently burning budget the ledger never sees). The cycle context
		// only gates retries.
		rctx, rcancel := context.WithTimeout(context.Background(), 2*time.Second)
		rep, err := cli.Report(rctx, h.opt.Session, req)
		rcancel()
		if err != nil {
			// Includes checkpoint-write faults (500): the observation is NOT
			// durable until an ack comes back, so keep retrying the same key.
			sleepCtx(ctx, 3*time.Millisecond)
			continue
		}
		h.mu.Lock()
		if rep.Duplicate {
			h.dups++
		} else {
			h.acked[lease.SuggestionID] = true
			h.cycleAcks++
		}
		if rep.Done {
			h.done = true
		}
		hit := h.cycleAcks >= quota || h.done
		h.mu.Unlock()
		if hit {
			quotaHit()
		}
		return
	}
}

// finalStatus polls the (still running) final daemon for the session status.
func (h *harness) finalStatus(ctx context.Context) (api.StatusReply, error) {
	baseURL, err := h.ctl.Start()
	if err != nil {
		return api.StatusReply{}, err
	}
	cli := client.New(baseURL, client.WithRetries(3))
	var lastErr error
	for attempt := 0; attempt < 100; attempt++ {
		st, err := cli.Status(ctx, h.opt.Session)
		if err == nil {
			return st, nil
		}
		lastErr = err
		sleepCtx(ctx, 3*time.Millisecond)
	}
	return api.StatusReply{}, fmt.Errorf("torture: final status: %w", lastErr)
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// ---- in-process daemon controller ----

// InProc restarts a server.Server over one shared durable backend inside the
// current process — the -race-friendly stand-in for a real daemon process.
// Each lifetime wraps the backend in a fresh storage.Chaos decorator (the
// previous lifetime's decorator died with its Crash), so fault injection
// follows the process boundary exactly like a real crash does.
type InProc struct {
	// Inner is the durable backend shared across lifetimes (required).
	Inner storage.Store
	// Chaos, when any rate is non-zero, decorates each lifetime's store;
	// the seed is advanced per lifetime so every restart draws a fresh but
	// reproducible fault schedule.
	Chaos storage.ChaosConfig
	// Telemetry is the process-wide recorder shared across lifetimes.
	Telemetry *telemetry.Recorder
	// Logf receives server log lines.
	Logf func(format string, args ...any)

	mu        sync.Mutex
	lifetimes int
	srv       *server.Server
	hs        *http.Server
	ln        net.Listener
	chaos     *storage.Chaos
	url       string
}

// LeaseMachine is the dispatch configuration of every torture daemon, in
// process (InProc) or as a child process (cmd/mfbo-chaos): abandoned leases
// (killed workers, severed connections) requeue within ~2s instead of 30, so
// every crash lifetime makes progress, and a point is only written off as
// poisoned after many lost leases.
func LeaseMachine() dispatch.Config {
	return dispatch.Config{
		LeaseTTL:    2 * time.Second,
		ScanEvery:   50 * time.Millisecond,
		MaxAttempts: 25,
		RetryAfter:  20 * time.Millisecond,
	}
}

// Start boots a daemon lifetime (idempotent: a running lifetime is reused).
func (p *InProc) Start() (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.srv != nil {
		return p.url, nil
	}
	st := p.Inner
	p.chaos = nil
	if p.chaosEnabled() {
		cfg := p.Chaos
		cfg.Seed = p.Chaos.Seed + int64(p.lifetimes)
		p.chaos = storage.NewChaos(p.Inner, cfg)
		st = p.chaos
	}
	srv, err := server.New(server.Config{
		Store:     st,
		Telemetry: p.Telemetry,
		Logf:      p.Logf,
		Dispatch:  LeaseMachine(),
	})
	if err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	p.srv, p.hs, p.ln = srv, hs, ln
	p.url = "http://" + ln.Addr().String()
	p.lifetimes++
	return p.url, nil
}

func (p *InProc) chaosEnabled() bool {
	c := p.Chaos
	return c.WriteErrRate > 0 || c.TornWriteRate > 0 || c.FsyncLieRate > 0 ||
		c.ReadErrRate > 0 || c.LatencyRate > 0
}

// Kill tears the current lifetime down with SIGKILL semantics: storage dies
// first (in-flight writes fail like a yanked disk), connections are severed,
// and nothing is persisted on the way out.
func (p *InProc) Kill() {
	p.mu.Lock()
	srv, hs, chaos := p.srv, p.hs, p.chaos
	p.srv, p.hs, p.ln, p.chaos = nil, nil, nil, nil
	p.mu.Unlock()
	if srv == nil {
		return
	}
	if chaos != nil {
		chaos.Crash()
	}
	hs.Close() // closes the listener and every live connection
	srv.Kill()
}

// Stop gracefully ends the current lifetime (used after the final pass).
func (p *InProc) Stop() {
	p.mu.Lock()
	srv, hs := p.srv, p.hs
	p.srv, p.hs, p.ln, p.chaos = nil, nil, nil, nil
	p.mu.Unlock()
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	hs.Shutdown(ctx)
	cancel()
	srv.Close()
}

// ChaosCounts returns the fault counts of the current lifetime's decorator
// (zero value when chaos is off or no lifetime is live).
func (p *InProc) ChaosCounts() storage.ChaosCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.chaos == nil {
		return storage.ChaosCounts{}
	}
	return p.chaos.Counts()
}
