package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// replicaSpec sizes a single-replica HTTP workload: closed-loop clients
// each driving short sessions create → suggest/observe → history → delete.
type replicaSpec struct {
	req     api.CreateSessionRequest // ID and Seed are set per session
	clients int
	// verify is how many sessions are replayed in-process with core.Optimize
	// and must match bit for bit.
	verify int
	target float64
}

var replicaChurn = replicaSpec{
	req: api.CreateSessionRequest{
		Problem: "forrester", Budget: 4.9, InitLow: 8, InitHigh: 4,
		MSPStarts: 2, MSPLocalIter: 10, GPMaxIter: 20, Workers: 1,
	},
	clients: 2,
	verify:  2,
	target:  -5.5,
}

// replicaStack is one booted deployment: a server over a timed in-memory
// store, behind httptest, and a client through a timing transport.
type replicaStack struct {
	srv   *server.Server
	ts    *httptest.Server
	tr    *timingTransport
	cl    *client.Client
	store *timedStore
}

func (st *replicaStack) close() {
	st.tr.close()
	st.ts.Close()
	_ = st.srv.Close() // in-memory store: nothing to lose
}

// bootReplica starts a deployment and times it until its first answered
// request.
func bootReplica(p *pass, rec *telemetry.Recorder, roots *telemetry.Tracer) (*replicaStack, error) {
	start := time.Now()
	store := newTimedStore(storage.NewMem(storage.MemConfig{}), 1<<19)
	srv, err := server.New(server.Config{Store: store, Telemetry: rec})
	if err != nil {
		return nil, err
	}
	st := &replicaStack{srv: srv, ts: httptest.NewServer(srv), tr: newTimingTransport(roots, nil), store: store}
	st.cl = client.New(st.ts.URL, client.WithHTTPClient(st.tr.client()))
	if _, err := st.cl.Health(context.Background()); err != nil {
		st.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	p.setUp(start)
	return st, nil
}

// tally is one client goroutine's share of a pass, merged at the end.
type tally struct {
	attempted, failed     int
	sessions, suggestions int
	toTarget              []float64
	violations            []string
}

func (t *tally) mergeInto(p *pass) {
	p.attempted += t.attempted
	p.failed += t.failed
	p.sessions += t.sessions
	p.suggestions += t.suggestions
	p.toTarget = append(p.toTarget, t.toTarget...)
	p.violations = append(p.violations, t.violations...)
}

// call counts one request; resync conflicts are not failures.
func (t *tally) call(err error) error {
	t.attempted++
	if err != nil && !isResync(err) {
		t.failed++
	}
	return err
}

// isResync reports the at-least-once conflicts of the protocol: the
// suggestion was consumed concurrently, the ack was lost after ingestion, or
// the budget ran out between suggest and observe.
func isResync(err error) bool {
	return errors.Is(err, core.ErrNoPendingAsk) || errors.Is(err, core.ErrTellMismatch) ||
		errors.Is(err, core.ErrBudgetExhausted)
}

func (s replicaSpec) run(seed int64, d time.Duration, traced bool) (*pass, error) {
	// About 9000 calls/s of each kind here: room for twice that over 30 s.
	p := newPass(1 << 19)
	defer p.probe.end()
	rec := telemetry.NewRecorder(nil, 16) // mfbod's defaults: metrics on, no span log
	var roots *telemetry.Tracer
	if traced {
		sink := p.traceInto()
		rec = telemetry.NewRecorder(sink, 1)
		roots = telemetry.NewTracer(sink, 1)
		roots.SetService("bench")
	}
	rec.SetService("mfbod")
	var st *replicaStack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		var err error
		if st, err = bootReplica(p, rec, roots); err != nil {
			return nil, err
		}
	}
	p.client, p.store = st.tr, st.store

	var (
		next     atomic.Int64
		mu       sync.Mutex
		verified = make([][]step, s.verify)
		wg       sync.WaitGroup
	)
	p.begin()
	deadline := p.start.Add(d)
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			for {
				i := int(next.Add(1) - 1)
				if i >= s.verify && time.Now().After(deadline) {
					break
				}
				steps := s.session(p, st.cl, &t, i, seed)
				if i < s.verify {
					mu.Lock()
					verified[i] = steps
					mu.Unlock()
				}
				p.drain(100 * time.Millisecond)
			}
			mu.Lock()
			t.mergeInto(p)
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.finish()
	if p.failed > 0 {
		p.violations = append(p.violations, "failed replies: "+st.tr.failures())
	}
	st.close()
	p.drainAll()

	// Replay the sampled sessions in-process: the HTTP trajectory must be
	// bit-identical to core.Optimize under the same seed and config.
	var all []step
	for i, got := range verified {
		req := s.request(i, seed)
		ref, err := core.Optimize(mustLookup(req.Problem), coreConfig(req), rand.New(rand.NewSource(req.Seed)))
		if err != nil && !errors.Is(err, core.ErrNoFeasible) {
			return nil, fmt.Errorf("reference run %s: %w", req.ID, err)
		}
		want := stepsOfCore(ref.History)
		if len(got) != len(want) || fingerprint(got) != fingerprint(want) {
			p.violations = append(p.violations, fmt.Sprintf("session %s: %d steps %016x, in-process reference %d steps %016x",
				req.ID, len(got), fingerprint(got), len(want), fingerprint(want)))
		}
		all = append(all, got...)
	}
	p.fingerprint = fmt.Sprintf("%016x", fingerprint(all))
	return p, nil
}

// request is the creation request of session i.
func (s replicaSpec) request(i int, seed int64) api.CreateSessionRequest {
	req := s.req
	req.ID = fmt.Sprintf("rc-%06d", i)
	req.Seed = seed*1_000_000 + int64(i)
	return req
}

// session runs one session and audits it: the final history must hold at
// least every acknowledged observation. It returns the trajectory.
func (s replicaSpec) session(p *pass, cl *client.Client, t *tally, i int, seed int64) []step {
	ctx := context.Background()
	req := s.request(i, seed)
	prob := newTimedProblem(mustLookup(req.Problem), p.evals)
	if t.call(func() error { _, err := cl.CreateSession(ctx, req); return err }()) != nil {
		return nil
	}
	acks := 0
	for {
		t0 := time.Now()
		sug, err := cl.Suggest(ctx, req.ID)
		if t.call(err) != nil {
			return nil
		}
		if sug.Done {
			break
		}
		p.suggest.Add(p.probe.elapsed(t0))
		ev, everr := problem.EvaluateRich(prob, sug.X, problem.Fidelity(sug.Fidelity))
		if everr != nil {
			ev.Failed = true
		}
		t0 = time.Now()
		_, err = cl.Observe(ctx, req.ID, api.Observation{
			X: sug.X, Fidelity: sug.Fidelity,
			Objective: ev.Objective, Constraints: ev.Constraints, Failed: ev.Failed,
		})
		if err == nil {
			p.observe.Add(p.probe.elapsed(t0))
		}
		t.call(err)
		switch {
		case err == nil:
			acks++
			t.suggestions++
		case !isResync(err):
			return nil
		}
	}
	var hist api.HistoryReply
	if t.call(func() (err error) { hist, err = cl.History(ctx, req.ID); return err }()) != nil {
		return nil
	}
	if len(hist.Observations) < acks {
		t.violations = append(t.violations, fmt.Sprintf("session %s lost acked observations: acked %d, history %d",
			req.ID, acks, len(hist.Observations)))
	}
	steps := stepsOfAPI(hist.Observations)
	t.toTarget = append(t.toTarget, costToTarget(steps, problem.NumFidelities(prob)-1, s.target, req.Budget))
	if t.call(cl.Delete(ctx, req.ID)) != nil {
		return nil
	}
	t.sessions++
	return steps
}

// coreConfig is the in-process equivalent of a creation request, field for
// field as the server maps it.
func coreConfig(req api.CreateSessionRequest) core.Config {
	return core.Config{
		Budget:        req.Budget,
		InitLow:       req.InitLow,
		InitHigh:      req.InitHigh,
		InitMid:       req.InitMid,
		Gamma:         req.Gamma,
		MSP:           optimize.MSPConfig{Starts: req.MSPStarts, LocalIter: req.MSPLocalIter},
		GPRestarts:    req.GPRestarts,
		GPMaxIter:     req.GPMaxIter,
		RefitEvery:    req.RefitEvery,
		Incremental:   req.Incremental,
		NLMLTrigger:   req.NLMLTrigger,
		LowRankAfter:  req.LowRankAfter,
		MaxLowData:    req.MaxLowData,
		MaxIterations: req.MaxIterations,
		Workers:       req.Workers,
		Fantasy:       core.FantasyStrategy(req.Fantasy),
	}
}
