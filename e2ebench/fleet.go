package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/problem"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/worker"
)

// fleetSpec sizes a gateway + sharded replicas + worker fleet workload:
// sequential batch sessions, each served by its own worker that leases,
// evaluates and reports until the session's budget is spent.
//
// One worker per session keeps every session deterministic: each lease tops
// the batch up (proposing against the outstanding slot as a fantasy) and
// grants the oldest slot, in an order no race decides. With two workers on
// one session, which worker reports first changes the trajectory, and the
// worker left without a slot parks on the dispatch queue's one-second
// poll-again hint, so session times jump by whole seconds from run to run.
// Sessions run one at a time for the same reason: two at once on this
// host's two CPUs make every latency depend on how their proposals overlap.
type fleetSpec struct {
	req api.CreateSessionRequest // ID and Seed are set per session
	// quality is how many sessions, seeds 1, 2, …, a pass always runs and
	// takes cost to target over. The seeds are fixed, not drawn from
	// --seed, so that the mean compares like with like.
	quality int
	// verify is how many of the quality sessions are replayed in-process
	// (AskBatch/TellByID in the worker's order) and must match bit for bit.
	verify int
	target float64
}

// sessionTimeout bounds one fleet session: a session that has not finished
// by then fails the run instead of hanging it.
const sessionTimeout = time.Minute

var fleetLadder = fleetSpec{
	req: api.CreateSessionRequest{
		Problem: "forrester3", Budget: 20, InitLow: 4, InitMid: 2, InitHigh: 2,
		Batch: 2, Incremental: true, RefitEvery: 3,
	},
	quality: 24,
	verify:  2,
	target:  -5.5,
}

// fleetStack is one booted fleet: replicas sharing a timed in-memory store,
// a gateway reaching them through a timing transport, and a client (shared
// by the benchmark and its workers) through another.
type fleetStack struct {
	srvs  []*server.Server
	tss   []*httptest.Server
	gw    *gateway.Gateway
	gts   *httptest.Server
	tr    *timingTransport // client → gateway
	up    *timingTransport // gateway → replicas
	cl    *client.Client
	store *timedStore
	regs  []*telemetry.Registry
	gwReg *telemetry.Registry
}

func (st *fleetStack) close() {
	st.tr.close()
	if st.gts != nil {
		st.gts.Close()
		st.gw.Close()
	}
	st.up.close()
	for i := range st.tss {
		st.tss[i].Close()
		_ = st.srvs[i].Close() // in-memory store: nothing to lose
	}
}

// bootFleet starts a fleet and times it until the gateway answers its first
// request. recorder builds the telemetry of one process by service name.
func bootFleet(p *pass, recorder func(service string) *telemetry.Recorder, roots *telemetry.Tracer) (*fleetStack, error) {
	start := time.Now()
	st := &fleetStack{
		store: newTimedStore(storage.NewMem(storage.MemConfig{}), 1<<14),
		tr:    newTimingTransport(roots, p.probe),
		up:    newTimingTransport(nil, nil),
	}
	var urls []string
	for _, id := range []string{"ra", "rb"} {
		rec := recorder("mfbod/" + id)
		srv, err := server.New(server.Config{Store: st.store, ReplicaID: id, Telemetry: rec})
		if err != nil {
			st.close()
			return nil, err
		}
		ts := httptest.NewServer(srv)
		st.srvs, st.tss, st.regs = append(st.srvs, srv), append(st.tss, ts), append(st.regs, rec.Metrics)
		urls = append(urls, ts.URL)
	}
	rec := recorder("gateway")
	gw, err := gateway.New(gateway.Config{Replicas: urls, Client: st.up.client(), Telemetry: rec})
	if err != nil {
		st.close()
		return nil, err
	}
	st.gw, st.gts, st.gwReg = gw, httptest.NewServer(gw), rec.Metrics
	st.cl = client.New(st.gts.URL, client.WithHTTPClient(st.tr.client()))
	if _, err := st.cl.Health(context.Background()); err != nil {
		st.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	p.setUp(start)
	return st, nil
}

func (s fleetSpec) run(seed int64, d time.Duration, traced bool) (*pass, error) {
	p := newPass(0) // latencies come from the client transport
	defer p.probe.end()
	var sink telemetry.Sink
	var roots *telemetry.Tracer
	if traced {
		sink = p.traceInto()
		roots = telemetry.NewTracer(sink, 1)
		roots.SetService("bench")
	}
	// Untraced, the processes run with the daemons' defaults: metrics on,
	// no span log (mfbod samples every 16th root into session rings).
	recorder := func(service string) *telemetry.Recorder {
		every := 1
		if !traced && service != "gateway" {
			every = 16
		}
		rec := telemetry.NewRecorder(sink, every)
		rec.SetService(service)
		return rec
	}
	var st *fleetStack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		var err error
		if st, err = bootFleet(p, recorder, roots); err != nil {
			return nil, err
		}
	}
	p.client, p.upstream, p.store = st.tr, st.up, st.store
	p.replicas, p.gateway = st.regs, st.gwReg
	workerTelemetry := func(name string) *telemetry.Recorder {
		if !traced {
			return nil // mfbo-worker runs without telemetry unless asked
		}
		return recorder("worker/" + name)
	}

	verified := make([][]step, s.verify)
	p.begin()
	deadline := p.start.Add(d)
	for i := 0; i < s.quality || time.Now().Before(deadline); i++ {
		r := s.session(st, i, seed, workerTelemetry, p.evals)
		r.mergeInto(p, i < s.quality)
		if i < s.verify {
			verified[i] = r.steps
		}
		p.drain(200 * time.Millisecond)
	}
	p.finish()
	// The workers' own calls are only visible at the transport: a lease
	// fetches the next suggestion, a report acknowledges an observation.
	p.suggest, p.observe = st.tr.route("lease").Millis, st.tr.route("report").Millis
	c := st.tr.totals("healthz")
	p.attempted, p.failed = c.Requests, c.Failed
	if c.Failed > 0 {
		p.violations = append(p.violations, "failed replies: "+st.tr.failures())
	}
	st.close()
	p.drainAll()

	var all []step
	for i, got := range verified {
		want, err := s.replay(i, seed)
		if err != nil {
			return nil, fmt.Errorf("reference run of session %d: %w", i, err)
		}
		if len(got) != len(want) || fingerprint(got) != fingerprint(want) {
			p.violations = append(p.violations, fmt.Sprintf("session %s: %d steps %016x, in-process replay %d steps %016x",
				s.request(i, seed).ID, len(got), fingerprint(got), len(want), fingerprint(want)))
		}
		all = append(all, got...)
	}
	p.fingerprint = fmt.Sprintf("%016x", fingerprint(all))
	return p, nil
}

// request is the creation request of session i: seeds 1, 2, … for the
// quality sessions, then seeds made from the run's seed.
func (s fleetSpec) request(i int, seed int64) api.CreateSessionRequest {
	req := s.req
	req.ID = fmt.Sprintf("fl-%06d", i)
	req.Seed = int64(i + 1)
	if i >= s.quality {
		req.Seed = seed*1_000_000 + int64(i)
	}
	return req
}

// fleetSession is what one fleet session saw.
type fleetSession struct {
	steps      []step
	toTarget   float64
	workerWall time.Duration
	violation  string
}

func (r *fleetSession) mergeInto(p *pass, quality bool) {
	if r.violation != "" {
		p.violations = append(p.violations, r.violation)
		return
	}
	p.sessions++
	p.suggestions += len(r.steps)
	p.workerWall += r.workerWall
	p.workerRuns++
	if quality {
		p.toTarget = append(p.toTarget, r.toTarget)
	}
}

// session creates one session, serves it with a fresh worker until its
// budget is spent, audits it and deletes it. Request-level failures are
// counted by the client transport; anything else that goes wrong is a
// violation.
func (s fleetSpec) session(st *fleetStack, i int, seed int64, telem func(string) *telemetry.Recorder, evals *evalStats) fleetSession {
	ctx, cancel := context.WithTimeout(context.Background(), sessionTimeout)
	defer cancel()
	req := s.request(i, seed)
	fail := func(format string, args ...any) fleetSession {
		return fleetSession{violation: fmt.Sprintf("session %s: ", req.ID) + fmt.Sprintf(format, args...)}
	}
	if _, err := st.cl.CreateSession(ctx, req); err != nil {
		return fail("create: %v", err)
	}
	dups := duplicateReports(st.regs)
	name := req.ID + "-w"
	w, err := worker.New(worker.Config{
		Client: st.cl, Session: req.ID, Name: name, Telemetry: telem(name),
		Lookup: func(name string) (problem.Problem, error) {
			prob, err := catalog.Lookup(name)
			if err != nil {
				return nil, err
			}
			return newTimedProblem(prob, evals), nil
		},
	})
	if err != nil {
		return fail("worker: %v", err)
	}
	t0 := time.Now()
	err = w.Run(ctx)
	r := fleetSession{workerWall: time.Since(t0)}
	switch {
	case ctx.Err() != nil:
		return fail("not finished after %v", sessionTimeout)
	case err != nil:
		return fail("worker: %v", err)
	}
	hist, err := st.cl.History(ctx, req.ID)
	if err != nil {
		return fail("history: %v", err)
	}
	r.steps = stepsOfAPI(hist.Observations)
	// Lost-ack audit: every report the worker had acknowledged must be in
	// the final history, except duplicates (an evaluation requeued and
	// reported twice is acked twice and ingested once).
	if acks := w.Evaluated() - int(duplicateReports(st.regs)-dups); len(r.steps) < acks {
		return fail("lost acked observations: acked %d, history %d", acks, len(r.steps))
	}
	r.toTarget = costToTarget(r.steps, problem.NumFidelities(mustLookup(req.Problem))-1, s.target, req.Budget)
	if err := st.cl.Delete(ctx, req.ID); err != nil {
		return fail("delete: %v", err)
	}
	return r
}

// replay runs session i in-process the way its worker drives it over HTTP:
// top the batch up, evaluate the oldest outstanding suggestion, tell it by
// ID.
func (s fleetSpec) replay(i int, seed int64) ([]step, error) {
	req := s.request(i, seed)
	prob := mustLookup(req.Problem)
	eng, err := core.NewEngine(prob, coreConfig(req), rand.New(rand.NewSource(req.Seed)))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for {
		sugs, err := eng.AskBatch(ctx, req.Batch)
		if errors.Is(err, core.ErrBudgetExhausted) {
			return stepsOfCore(eng.History()), nil
		}
		if err != nil {
			return nil, err
		}
		ev, everr := problem.EvaluateRich(prob, sugs[0].X, sugs[0].Fid)
		if everr != nil {
			ev.Failed = true
		}
		if err := eng.TellByID(sugs[0].ID, ev); err != nil {
			return nil, err
		}
	}
}

// duplicateReports sums the reports the replicas acked as duplicates.
func duplicateReports(regs []*telemetry.Registry) uint64 {
	var n uint64
	for _, reg := range regs {
		n += counter(reg, `mfbo_dispatch_reports_total{outcome="duplicate"}`)
	}
	return n
}
