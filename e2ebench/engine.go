package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// engineSpec sizes an in-process engine workload: sequential Ask/Tell
// sessions on one problem, no HTTP. Each session checkpoints every
// observation into an in-memory store, as a durable in-process run
// (mfbo -checkpoint) does, so that a Tell does measurable work.
type engineSpec struct {
	problem string
	// seeds is one round of sessions. A pass runs the round once, then
	// repeats it until its time is up; cost to target is taken over the
	// first round. The seeds are fixed, not drawn from --seed: cost to
	// target only compares like with like on the same trajectories, and
	// these are deterministic.
	seeds  []int64
	cfg    core.Config
	target float64
}

// replayIterations is how many adaptive iterations the determinism gate
// reruns with Workers=1.
const replayIterations = 3

// enginePoweramp is the paper's Table 1 circuit at its budget and
// initialization, with exact surrogate fits (the default config).
var enginePoweramp = engineSpec{
	problem: "poweramp",
	seeds:   []int64{1, 2, 3},
	cfg: core.Config{
		Budget: 30, InitLow: 10, InitHigh: 5,
		MSP:     optimize.MSPConfig{Starts: 8, LocalIter: 30},
		Workers: 2,
	},
	target: -56.5, // objective is −efficiency in %
}

func (s engineSpec) run(_ int64, d time.Duration, traced bool) (*pass, error) {
	p := newPass(1 << 12)
	defer p.probe.end()
	// Set-up is what a caller waits for before its first suggestion:
	// building the problem and the engine.
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		eng, err := core.NewEngine(mustLookup(s.problem), s.cfg, rand.New(rand.NewSource(s.seeds[0])))
		if err != nil {
			return nil, err
		}
		if _, err := eng.Ask(context.Background()); err != nil {
			return nil, fmt.Errorf("first ask: %w", err)
		}
		p.setUp(start)
	}

	var rec *telemetry.Recorder
	var roots *telemetry.Tracer
	if traced {
		sink := p.traceInto()
		rec = telemetry.NewRecorder(sink, 1)
		roots = telemetry.NewTracer(sink, 1)
		roots.SetService("bench")
	}
	top := problem.NumFidelities(mustLookup(s.problem)) - 1
	p.store = newTimedStore(storage.NewMem(storage.MemConfig{}), 1<<12)
	asks, tells := repeats{}, repeats{}
	p.begin()
	var first []step // the first round, concatenated
	var firstSession []step
	for i := range s.seeds {
		steps, err := s.session(p, i, asks, tells, rec, roots, time.Time{})
		if err != nil {
			return nil, err
		}
		if firstSession == nil {
			firstSession = steps
		}
		first = append(first, steps...)
		p.toTarget = append(p.toTarget, costToTarget(steps, top, s.target, s.cfg.Budget))
	}
	deadline := p.start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		if _, err := s.session(p, i%len(s.seeds), asks, tells, rec, roots, deadline); err != nil {
			return nil, err
		}
	}
	p.finish()
	p.suggest, p.observe = asks.medians(), tells.medians()
	// Engine calls are synchronous: every trace has ended.
	p.drainAll()
	p.fingerprint = fmt.Sprintf("%016x", fingerprint(first))
	if !traced {
		if v := s.replayGate(firstSession); v != "" {
			p.violations = append(p.violations, v)
		}
	}
	return p, nil
}

// session drives the optimization with the i-th seed to its budget, or
// until deadline when that is set, timing every Ask and Tell.
func (s engineSpec) session(p *pass, i int, asks, tells repeats, rec *telemetry.Recorder, roots *telemetry.Tracer, deadline time.Time) ([]step, error) {
	seed := s.seeds[i]
	prob := newTimedProblem(mustLookup(s.problem), p.evals)
	cfg := s.cfg
	cfg.Telemetry = rec
	cfg.Checkpointer = core.StoreCheckpointer(p.store, fmt.Sprintf("engine-%d", seed))
	eng, err := core.NewEngine(prob, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	for k := i << 16; deadline.IsZero() || time.Now().Before(deadline); k++ {
		span := roots.Start("bench.ask")
		t0 := time.Now()
		sug, err := eng.Ask(telemetry.ContextWithSpan(context.Background(), span))
		span.End()
		p.attempted++
		if errors.Is(err, core.ErrBudgetExhausted) {
			break
		}
		if err != nil {
			p.failed++
			p.violations = append(p.violations, fmt.Sprintf("seed %d: ask: %v", seed, err))
			break
		}
		asks[k] = append(asks[k], p.probe.elapsed(t0))

		ev, everr := problem.EvaluateRich(prob, sug.X, sug.Fid)
		if everr != nil {
			ev.Failed = true
		}

		span = roots.Start("bench.tell")
		t0 = time.Now()
		err = eng.TellCtx(telemetry.ContextWithSpan(context.Background(), span), sug.X, sug.Fid, ev)
		span.End()
		p.attempted++
		if err != nil {
			p.failed++
			p.violations = append(p.violations, fmt.Sprintf("seed %d: tell: %v", seed, err))
			break
		}
		tells[k] = append(tells[k], p.probe.elapsed(t0))
		p.suggestions++
	}
	p.sessions++
	return stepsOfCore(eng.History()), nil
}

// repeats holds the latencies of calls that repeat identical work, by
// step: every round of an engine pass asks and tells the same points.
type repeats map[int][]float64

// medians returns one latency per step: the median of its repeats. Taking
// quantiles over steps, not calls, keeps a round cut short by the deadline
// from tilting them towards the cheap early steps of a session.
func (r repeats) medians() *Samples {
	s := newSamples(len(r))
	for _, v := range r {
		s.Add(median(v))
	}
	return s
}

// replayGate reruns the start of the first session with Workers=1 and
// checks it is bit-identical to the measured Workers=2 trajectory.
func (s engineSpec) replayGate(measured []step) string {
	cfg := s.cfg
	cfg.Workers = 1
	cfg.MaxIterations = replayIterations
	res, err := core.Optimize(mustLookup(s.problem), cfg, rand.New(rand.NewSource(s.seeds[0])))
	if err != nil && !errors.Is(err, core.ErrNoFeasible) {
		return fmt.Sprintf("Workers=1 replay: %v", err)
	}
	replay := stepsOfCore(res.History)
	if len(replay) > len(measured) || fingerprint(replay) != fingerprint(measured[:len(replay)]) {
		return fmt.Sprintf("Workers=1 trajectory (%d steps, %016x) differs from the Workers=%d one",
			len(replay), fingerprint(replay), s.cfg.Workers)
	}
	return ""
}

// mustLookup instantiates a catalog problem the benchmark names itself.
func mustLookup(name string) problem.Problem {
	p, err := catalog.Lookup(name)
	if err != nil {
		panic(err) // the workload tables name catalog problems only
	}
	return p
}
