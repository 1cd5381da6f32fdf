// Package core implements the paper's primary contribution: the
// multi-fidelity Bayesian optimization algorithm of §3 (Algorithm 1).
//
// Each iteration
//
//  1. fits one low-fidelity GP per output (objective + constraints) on the
//     cheap data and one fused NARGP model per output on top of it,
//  2. maximizes the low-fidelity wEI acquisition to obtain x*_l,
//  3. maximizes the high-fidelity (fused) wEI acquisition with the §4.1
//     multiple-starting-point strategy — 40 % of starts near the
//     high-fidelity incumbent, 10 % near the low-fidelity incumbent, and
//     x*_l injected as an extra start,
//  4. chooses the evaluation fidelity by the §3.4 criterion: the point is
//     simulated at HIGH fidelity only when every low-fidelity posterior
//     variance is already below the threshold (eqs. 11–12),
//  5. runs the simulation, charges its cost, and updates the training set.
//
// While no feasible high-fidelity point is known, the §4.2 bootstrap
// objective (eq. 13) replaces wEI to force the search into the feasible
// region.
//
// # Fault tolerance
//
// The loop is built to survive the failure modes of SPICE-class evaluation
// (see internal/robust and DESIGN.md "Failure handling & resume"):
//
//   - Failed evaluations — problems implementing problem.RichEvaluator (e.g.
//     robust.SafeProblem) report failures explicitly; the loop charges them
//     against the budget, records them in History with Eval.Failed set, and
//     excludes them from surrogate training.
//   - Surrogate-fit failures degrade instead of aborting, down a three-rung
//     ladder recorded in Result.Degradations: (1) refit with the previous
//     iteration's warm hyperparameters frozen, (2) drop to a pure
//     low-fidelity surrogate for the iteration, (3) pure random exploration.
//   - OptimizeCtx observes ctx: cancellation ends the run gracefully with
//     Result.Interrupted set and the partial history intact.
//   - Config.Checkpointer snapshots the full optimizer state after every
//     iteration; Resume continues a run from such a snapshot.
package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/fidelity"
	"repro/internal/gp"
	"repro/internal/mfgp"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/robust"
	"repro/internal/telemetry"
)

// Config tunes the optimizer. Zero values select the paper's settings where
// the paper specifies them (γ = 0.01, MSP fractions 40 %/10 %).
type Config struct {
	// Budget is the total simulation budget in equivalent high-fidelity
	// simulations (required, > 0). Initialization cost counts against it.
	Budget float64
	// InitLow / InitHigh are the Latin-hypercube initialization sizes
	// (defaults 10 and 5, the paper's power-amplifier setting).
	InitLow, InitHigh int
	// Gamma is the fidelity-selection threshold of eq. (11) on standardized
	// posterior variance (default 0.01).
	Gamma float64
	// InitMid is the Latin-hypercube initialization size per intermediate
	// rung of a K>2 fidelity ladder (default 5). Ignored by two-fidelity
	// problems.
	InitMid int
	// Ladder, when non-nil, overrides the fidelity ladder derived from the
	// problem's Cost schedule (fidelity.OfProblem). Its rung count K >= 1
	// must match the problem's, except that a one-rung ladder fits any
	// problem: the engine then simulates only the problem's target fidelity
	// (problem.High on classic problems) — single-fidelity wEI Bayesian
	// optimization, the WEIBO baseline. Nil (the default) derives it from
	// the problem; for classic two-fidelity problems that reproduces the
	// historical low/high-cost-ratio engine exactly.
	Ladder *fidelity.Ladder
	// MSP configures acquisition maximization (§4.1).
	MSP optimize.MSPConfig
	// GPRestarts / GPMaxIter tune surrogate training (defaults 1 / 60).
	GPRestarts, GPMaxIter int
	// RefitEvery controls how often hyperparameters are re-optimized; in
	// between, models are re-factorized with warm hyperparameters
	// (default 1 = every iteration).
	RefitEvery int
	// Incremental enables O(n²) surrogate maintenance between full refits:
	// instead of re-factorizing the Gram matrix from scratch on every
	// proposal (O(n³)), new observations are folded into the cached models
	// with bordered rank-1 Cholesky updates, fantasy rows are retracted
	// exactly, and models whose fidelity received no new data are left
	// untouched. Hyperparameters are still re-optimized every RefitEvery
	// proposals, or earlier when a model's per-point NLML degrades by more
	// than NLMLTrigger nats versus its last full refit. With RefitEvery = 1
	// every proposal is a full refit and the trajectory is bit-identical to
	// Incremental = false (the exact path).
	Incremental bool
	// NLMLTrigger is the per-point NLML degradation (in nats, standardized
	// units) that forces an early full refit in Incremental mode
	// (default 0.5; negative disables the trigger).
	NLMLTrigger float64
	// LowRankAfter, when positive, switches any surrogate whose training set
	// exceeds this many points to the opt-in low-rank inducing-point
	// approximation with LowRankAfter inducing points (see
	// gp.Config.Inducing). Zero (the default) keeps exact GPs everywhere.
	LowRankAfter int
	// Propagation and NumSamples configure the fused posterior (§3.2);
	// defaults: MonteCarlo with 30 common-random-number samples.
	Propagation mfgp.Propagation
	NumSamples  int
	// FixedNoise pins the GP observation noise (standardized units);
	// deterministic simulators should use a small value (default 1e-4).
	FixedNoise *float64
	// DisableIncumbentSeeding turns off the §4.1 τ_l/τ_h-local start points
	// (ablation).
	DisableIncumbentSeeding bool
	// ForceHighFidelity disables the §3.4 criterion and evaluates every
	// query at high fidelity (ablation; degenerates toward WEIBO with a
	// fused model).
	ForceHighFidelity bool
	// MaxLowData, when positive, caps the low-fidelity training window for
	// surrogate fitting: the newest MaxLowData cheap observations are used
	// (all are still recorded in History). Exact GP training is O(n³), so
	// high-dimensional problems whose cost ratio admits hundreds of cheap
	// simulations need this to stay tractable.
	MaxLowData int
	// MaxIterations, when positive, bounds the number of adaptive
	// iterations regardless of remaining budget — a wall-clock guard for
	// problems whose low fidelity is so cheap that the budget admits
	// thousands of iterations.
	MaxIterations int
	// Callback, when non-nil, observes every simulation as it happens.
	Callback func(Observation)
	// Checkpointer, when non-nil, receives a full state snapshot after the
	// initialization phase and after every adaptive iteration. Use
	// StoreCheckpointer for durable persistence through a storage.Store; a
	// non-nil error aborts the run (the partial Result is still returned
	// alongside it).
	Checkpointer func(*Checkpoint) error
	// Fantasy selects the synthetic-observation strategy used by AskBatch
	// when proposing the 2nd..q-th concurrently-outstanding suggestions
	// (default FantasyKrigingBeliever). Sequential Ask (q = 1) never
	// fantasizes, so this setting cannot perturb single-suggestion
	// trajectories.
	Fantasy FantasyStrategy
	// Workers bounds the goroutines used by every hot path — GP training
	// restarts and acquisition maximization:
	// 0 selects parallel.DefaultWorkers() (runtime.NumCPU() unless the
	// MFBO_WORKERS environment variable overrides it), 1 forces the serial
	// path, n > 1 uses up to n goroutines. The optimization trajectory is
	// bit-identical for every setting, so checkpoints taken under one worker
	// count resume correctly under any other.
	Workers int
	// Telemetry, when non-nil, wires full-loop observability into the run:
	// a structured event per iteration (the §3.4 σ²_l-vs-(1+Nc)γ fidelity
	// comparison, wEI values at the argmax, incumbents, surrogate NLML and
	// restart bookkeeping, degradation rungs, MSP convergence counts),
	// metrics into Telemetry.Metrics, and trace spans through Ask/Tell,
	// gp.Fit and optimize.MaximizeMSP. Telemetry never consumes optimizer
	// randomness or adds floating-point work, so the trajectory is
	// bit-identical with it on or off; nil (the default) is a
	// zero-allocation no-op on every hot path.
	Telemetry *telemetry.Recorder
}

func (c *Config) defaults() error {
	if c.Budget <= 0 {
		return fmt.Errorf("%w: Budget must be positive", ErrInvalidConfig)
	}
	if c.InitLow <= 0 {
		c.InitLow = 10
	}
	if c.InitHigh <= 0 {
		c.InitHigh = 5
	}
	if c.Gamma <= 0 {
		c.Gamma = 0.01
	}
	if c.InitMid <= 0 {
		c.InitMid = 5
	}
	if c.GPRestarts <= 0 {
		c.GPRestarts = 1
	}
	if c.GPMaxIter <= 0 {
		c.GPMaxIter = 60
	}
	if c.RefitEvery <= 0 {
		c.RefitEvery = 1
	}
	if c.NLMLTrigger == 0 {
		c.NLMLTrigger = 0.5
	}
	if c.LowRankAfter < 0 {
		return fmt.Errorf("%w: negative LowRankAfter %d", ErrInvalidConfig, c.LowRankAfter)
	}
	if c.NumSamples <= 0 {
		c.NumSamples = 30
	}
	if c.FixedNoise == nil {
		v := 1e-4
		c.FixedNoise = &v
	}
	switch c.Fantasy {
	case "":
		c.Fantasy = FantasyKrigingBeliever
	case FantasyKrigingBeliever, FantasyConstantLiar:
	default:
		return fmt.Errorf("%w: unknown Fantasy %q", ErrInvalidConfig, c.Fantasy)
	}
	return nil
}

// FantasyStrategy names the synthetic-observation rule batch acquisition uses
// for suggestions whose real outcome is still outstanding (see AskBatch).
type FantasyStrategy string

const (
	// FantasyKrigingBeliever hallucinates the posterior mean at the pending
	// point: the surrogate "believes" its own prediction, which keeps the
	// fantasy consistent with the model and spreads the batch by the
	// variance reduction the believed point induces.
	FantasyKrigingBeliever FantasyStrategy = "kriging-believer"
	// FantasyConstantLiar hallucinates a pessimistic constant — the worst
	// (maximum, under minimization) value observed so far per output at the
	// pending point's fidelity. The lie discourages the next slot from
	// crowding the same basin more aggressively than kriging-believer.
	FantasyConstantLiar FantasyStrategy = "constant-liar"
)

// Observation records one simulation performed by the optimizer.
type Observation struct {
	Iter    int // 0-based; initialization points share iteration −1
	X       []float64
	Fid     problem.Fidelity
	Eval    problem.Evaluation
	CumCost float64 // equivalent high-fidelity simulations spent so far
}

// DegradeStage identifies one rung of the graceful-degradation ladder.
type DegradeStage string

const (
	// DegradeWarmHypers: a full surrogate refit failed and the model was
	// re-factorized with the previous iteration's hyperparameters frozen.
	DegradeWarmHypers DegradeStage = "warm-hypers"
	// DegradeLowOnly: the fused model was unavailable and the iteration ran
	// on the pure low-fidelity surrogate.
	DegradeLowOnly DegradeStage = "low-fidelity-only"
	// DegradeRandom: no usable surrogate at all — the iteration fell back to
	// uniform random exploration.
	DegradeRandom DegradeStage = "random-exploration"
)

// Degradation records one downgrade taken by the loop.
type Degradation struct {
	// Iter is the adaptive iteration at which the downgrade happened.
	Iter int
	// Stage names the ladder rung.
	Stage DegradeStage
	// Output is the surrogate output index concerned (0 = objective,
	// 1+i = constraint i) or −1 when the whole iteration degraded.
	Output int
	// Reason carries the underlying fit error.
	Reason string
}

// Result summarizes an optimization run.
type Result struct {
	// BestX / Best are the best feasible HIGH-fidelity observation (or, if
	// none is feasible, the least-violating one). Feasible tells which.
	BestX    []float64
	Best     problem.Evaluation
	Feasible bool
	// NumLow / NumHigh count simulations at each fidelity (failed ones
	// included — they are charged). On a K>2 fidelity ladder NumLow
	// aggregates every sub-target rung; NumByRung has the full breakdown.
	NumLow, NumHigh int
	// NumByRung counts simulations per ladder rung (index = rung). Populated
	// only for K>2 ladders; nil on classic two-fidelity runs.
	NumByRung []int `json:",omitempty"`
	// NumFailed counts evaluations that failed (simulator crash, panic,
	// timeout, non-finite output). They are charged against the budget and
	// recorded in History with Eval.Failed set, but excluded from surrogate
	// training.
	NumFailed int
	// EquivalentSims is the paper's cost metric: total cost divided by the
	// cost of one high-fidelity simulation.
	EquivalentSims float64
	// History lists every simulation in order.
	History []Observation
	// Degradations lists every graceful downgrade taken by the loop (empty
	// on a healthy run).
	Degradations []Degradation
	// Interrupted reports that the run was stopped by context cancellation
	// before exhausting its budget; the partial history is intact.
	Interrupted bool
	// Faults is the per-fidelity fault log of the evaluation wrapper, when
	// the problem was wrapped with robust.Wrap (nil otherwise).
	Faults map[string]robust.FaultCounts `json:",omitempty"`
}

// dataset is the growing training set at one fidelity.
type dataset struct {
	X [][]float64
	Y [][]float64 // per point: [objective, constraints...]
}

func (d *dataset) add(x []float64, e problem.Evaluation) {
	d.X = append(d.X, append([]float64(nil), x...))
	d.Y = append(d.Y, e.Outputs())
}

func (d *dataset) column(k int) []float64 {
	col := make([]float64, len(d.Y))
	for i, row := range d.Y {
		col[i] = row[k]
	}
	return col
}

// window returns the newest max points (all of them when max <= 0) as a
// training view. The returned dataset shares backing storage with d.
func (d *dataset) window(max int) ([][]float64, *dataset) {
	if max <= 0 || len(d.X) <= max {
		return d.X, d
	}
	start := len(d.X) - max
	view := &dataset{X: d.X[start:], Y: d.Y[start:]}
	return view.X, view
}

// coreMetrics caches the optimizer's metric handles so the hot path never
// hits the registry's lock. All fields are nil (and every operation a no-op)
// when telemetry is off.
type coreMetrics struct {
	iterations   *telemetry.Counter
	evalsLow     *telemetry.Counter
	evalsHigh    *telemetry.Counter
	evalsByRung  []*telemetry.Counter
	costByRung   []*telemetry.Gauge
	evalsFailed  *telemetry.Counter
	degrade      map[DegradeStage]*telemetry.Counter
	fitRestarts  *telemetry.Counter
	fitDiverged  *telemetry.Counter
	fitSkipped   *telemetry.Counter
	rank1Updates *telemetry.Counter
	fitSeconds   *telemetry.Histogram
	acqSeconds   *telemetry.Histogram
	askSeconds   *telemetry.Histogram
	cost         *telemetry.Gauge
	best         *telemetry.Gauge
}

func newCoreMetrics(reg *telemetry.Registry, ladder fidelity.Ladder) *coreMetrics {
	if reg == nil {
		return nil
	}
	evalsByRung := make([]*telemetry.Counter, ladder.Rungs())
	costByRung := make([]*telemetry.Gauge, ladder.Rungs())
	for k := 0; k < ladder.Rungs(); k++ {
		rung := fmt.Sprintf("%d", k)
		evalsByRung[k] = reg.Counter("mfbo_fidelity_evals_total", "simulations by ladder rung (0 = cheapest)", "rung", rung)
		costByRung[k] = reg.Gauge("mfbo_fidelity_cost_equivalent_sims", "budget spent per ladder rung, in equivalent target-rung simulations", "rung", rung)
	}
	return &coreMetrics{
		iterations:  reg.Counter("mfbo_iterations_total", "adaptive optimizer iterations completed"),
		evalsLow:    reg.Counter("mfbo_evaluations_total", "simulations by fidelity", "fidelity", "low"),
		evalsHigh:   reg.Counter("mfbo_evaluations_total", "simulations by fidelity", "fidelity", "high"),
		evalsByRung: evalsByRung,
		costByRung:  costByRung,
		evalsFailed: reg.Counter("mfbo_evaluations_failed_total", "evaluations that failed (charged, excluded from training)"),
		degrade: map[DegradeStage]*telemetry.Counter{
			DegradeWarmHypers: reg.Counter("mfbo_degradations_total", "graceful surrogate downgrades by ladder rung", "stage", string(DegradeWarmHypers)),
			DegradeLowOnly:    reg.Counter("mfbo_degradations_total", "graceful surrogate downgrades by ladder rung", "stage", string(DegradeLowOnly)),
			DegradeRandom:     reg.Counter("mfbo_degradations_total", "graceful surrogate downgrades by ladder rung", "stage", string(DegradeRandom)),
		},
		fitRestarts:  reg.Counter("mfbo_fit_restarts_total", "GP hyperparameter-training starts run"),
		fitDiverged:  reg.Counter("mfbo_fit_diverged_total", "GP training starts that diverged to a non-finite NLML"),
		fitSkipped:   reg.Counter("mfbo_gp_fit_skipped_total", "proposals served by extending cached surrogates instead of refitting"),
		rank1Updates: reg.Counter("mfbo_gp_rank1_updates_total", "rank-1 surrogate factor extensions applied (fantasy rows included)"),
		fitSeconds:   reg.Histogram("mfbo_fit_seconds", "surrogate-fit wall time per iteration", nil),
		acqSeconds:   reg.Histogram("mfbo_acq_seconds", "acquisition-maximization wall time per iteration", nil),
		askSeconds:   reg.Histogram("mfbo_ask_seconds", "end-to-end Ask wall time (adaptive iterations)", nil),
		cost:         reg.Gauge("mfbo_cost_equivalent_sims", "budget spent, summed across runs sharing the registry"),
		best:         reg.Gauge("mfbo_best_objective", "best feasible high-fidelity objective (last run to update wins)"),
	}
}

// state is the live optimizer: everything a Checkpoint snapshots.
type state struct {
	p   problem.Problem
	cfg Config
	rng *rand.Rand

	d, nc, nOut int
	lo, hi      []float64
	box         optimize.Box

	res  *Result
	cost float64
	iter int // next adaptive iteration

	// Fidelity ladder (always set; two rungs for classic problems). data
	// holds the training set of every rung (index = rung); warm carries
	// per-output per-level warm hyperparameters of the surrogate chain
	// (warm[k][l], nil until level l was first fitted).
	ladder fidelity.Ladder
	data   []*dataset
	warm   [][][]float64

	// Incremental-surrogate state (Config.Incremental): the cached models
	// extended in place between full refits, and the proposals-since-refit
	// counter driving the fit-skip schedule. lcache is never checkpointed —
	// a restore starts with a full refit — but sinceRefit is, so the
	// schedule phase survives resume.
	lcache     *ladderCache
	sinceRefit int

	// Telemetry plumbing (all nil when Config.Telemetry is nil; never part
	// of a Checkpoint). ev is the iteration event being worked on:
	// proposeLadder fills the decision fields, the engine parks it on the
	// slot's pendingSug until that slot is told, and ingest completes it
	// with the observation and emits it.
	telem *telemetry.Recorder
	met   *coreMetrics
	ev    *telemetry.IterationEvent
}

func newState(p problem.Problem, cfg Config, rng *rand.Rand) (*state, error) {
	d := p.Dim()
	nc := p.NumConstraints()
	lo, hi := p.Bounds()
	ladder, err := fidelity.OfProblem(p)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Ladder != nil {
		if k := cfg.Ladder.Rungs(); k != 1 && k != ladder.Rungs() {
			return nil, fmt.Errorf("core: Config.Ladder has %d rungs, problem %q has %d",
				k, p.Name(), ladder.Rungs())
		}
		ladder = *cfg.Ladder
	}
	st := &state{
		p: p, cfg: cfg, rng: rng,
		d: d, nc: nc, nOut: 1 + nc,
		lo: lo, hi: hi,
		box:    optimize.NewBox(lo, hi),
		res:    &Result{},
		ladder: ladder,
		data:   make([]*dataset, ladder.Rungs()),
		warm:   make([][][]float64, 1+nc),
	}
	for r := range st.data {
		st.data[r] = &dataset{}
	}
	for k := range st.warm {
		st.warm[k] = make([][]float64, ladder.Rungs())
	}
	if cfg.Telemetry != nil {
		st.telem = cfg.Telemetry
		st.met = newCoreMetrics(cfg.Telemetry.Metrics, ladder)
	}
	return st, nil
}

// fidOf maps ladder rung r to the problem fidelity it simulates: rung r is
// fidelity r, except that the single rung of a one-rung ladder is the
// problem's target fidelity (problem.High on classic problems).
func (st *state) fidOf(r int) problem.Fidelity {
	if st.ladder.Rungs() == 1 {
		return problem.TargetFidelity(st.p)
	}
	return problem.Fidelity(r)
}

// rungOf, the inverse of fidOf, clamps a fidelity value into the ladder's
// rung range. For classic two-fidelity problems this is the identity on
// {Low, High}; on a one-rung ladder every fidelity is rung 0.
func (st *state) rungOf(fid problem.Fidelity) int {
	k := int(fid)
	if k < 0 {
		return 0
	}
	if t := st.ladder.Target(); k > t {
		return t
	}
	return k
}

// ds returns the training set of rung k.
func (st *state) ds(k int) *dataset { return st.data[k] }

// targetData returns the training set of the target rung, which holds the
// incumbent the run reports.
func (st *state) targetData() *dataset { return st.data[st.ladder.Target()] }

// datasetSizes snapshots every rung's training-set length, rung order.
func (st *state) datasetSizes() []int {
	sizes := make([]int, st.ladder.Rungs())
	for k := range sizes {
		sizes[k] = len(st.ds(k).X)
	}
	return sizes
}

// evaluate dispatches to the richest evaluation interface the problem
// offers, so failures surface as errors rather than poisoned values.
func (st *state) evaluate(ctx context.Context, x []float64, fid problem.Fidelity) (problem.Evaluation, error) {
	if ce, ok := st.p.(problem.ContextEvaluator); ok {
		return ce.EvaluateCtx(ctx, x, fid)
	}
	return problem.EvaluateRich(st.p, x, fid)
}

// ingest charges one completed simulation against the budget, files it in
// History and — when it succeeded — in the fidelity's training set. It is the
// sanitation boundary of the loop: explicitly Failed or non-finite outcomes
// are charged and logged but never reach surrogate training.
func (st *state) ingest(iter int, x []float64, fid problem.Fidelity, e problem.Evaluation) problem.Evaluation {
	failed := e.Failed || !e.IsFinite()
	if failed {
		e.Failed = true
		st.res.NumFailed++
	}
	rung := st.rungOf(fid)
	if rung == st.ladder.Target() {
		st.res.NumHigh++
		st.cost++
	} else {
		st.res.NumLow++
		st.cost += st.ladder.Cost(rung)
	}
	if st.ladder.Rungs() > 2 {
		if st.res.NumByRung == nil {
			st.res.NumByRung = make([]int, st.ladder.Rungs())
		}
		st.res.NumByRung[rung]++
	}
	if !failed {
		st.ds(rung).add(x, e)
	}
	ob := Observation{Iter: iter, X: append([]float64(nil), x...), Fid: fid, Eval: e, CumCost: st.cost}
	st.res.History = append(st.res.History, ob)
	if st.telem != nil {
		st.observeTelemetry(&ob, failed)
	}
	if st.cfg.Callback != nil {
		st.cfg.Callback(ob)
	}
	return e
}

// observeTelemetry completes (or, for initialization points, creates) the
// iteration event for one ingested observation, emits it, and updates the
// optimizer metrics. Called only when telemetry is on; it reads — never
// mutates — optimizer state.
func (st *state) observeTelemetry(ob *Observation, failed bool) {
	rung := st.rungOf(ob.Fid)
	ev := st.ev
	if ev == nil || ev.Iter != ob.Iter {
		// Initialization point (or an observation whose proposal event did
		// not survive, e.g. a slot replayed after a resume): emit a minimal
		// event. The ladder rung name degrades to "low"/"high" on two-rung
		// problems.
		ev = &telemetry.IterationEvent{Iter: ob.Iter, Nc: st.nc, Fidelity: st.ladder.Name(rung)}
		if st.ladder.Rungs() > 2 {
			ev.Rung = rung
		}
	}
	st.ev = nil
	ev.X = ob.X
	ev.Objective = ob.Eval.Objective
	ev.Constraints = ob.Eval.Constraints
	ev.Failed = failed
	ev.CumCost = ob.CumCost
	if fp, ok := st.p.(interface{ Faults() *robust.FaultLog }); ok {
		fl := fp.Faults()
		ev.RetriesCum = fl.TotalRetries()
		ev.FailuresCum = fl.TotalFailures()
	}
	st.telem.EmitIteration(ev)

	m := st.met
	if m == nil {
		return
	}
	target := st.ladder.Target()
	if rung == target {
		m.evalsHigh.Inc()
	} else {
		m.evalsLow.Inc()
	}
	m.evalsByRung[rung].Inc()
	m.costByRung[rung].Add(st.ladder.Cost(rung))
	if failed {
		m.evalsFailed.Inc()
	}
	if ob.Iter >= 0 {
		m.iterations.Inc()
	}
	if rung == target {
		m.cost.Add(1)
	} else {
		m.cost.Add(st.ladder.Cost(rung))
	}
	if rung == target && !failed {
		if _, be, feas := bestOf(st.targetData()); feas {
			m.best.Set(be.Objective)
		}
	}
}

// degradeRank orders the ladder rungs from mild to severe so the iteration
// event can record the worst one taken.
func degradeRank(s DegradeStage) int {
	switch s {
	case DegradeWarmHypers:
		return 1
	case DegradeLowOnly:
		return 2
	case DegradeRandom:
		return 3
	}
	return 0
}

func (st *state) degrade(iter int, stage DegradeStage, output int, reason error) {
	msg := ""
	if reason != nil {
		msg = reason.Error()
	}
	st.res.Degradations = append(st.res.Degradations,
		Degradation{Iter: iter, Stage: stage, Output: output, Reason: msg})
	if st.met != nil {
		st.met.degrade[stage].Inc()
	}
	if ev := st.ev; ev != nil && ev.Iter == iter && degradeRank(stage) > degradeRank(DegradeStage(ev.Degrade)) {
		ev.Degrade = string(stage)
	}
}

// Optimize runs Algorithm 1 on p until the simulation budget is exhausted.
func Optimize(p problem.Problem, cfg Config, rng *rand.Rand) (*Result, error) {
	return OptimizeCtx(context.Background(), p, cfg, rng)
}

// OptimizeCtx is the context-aware Optimize: cancelling ctx stops the run
// gracefully after the in-flight simulation, returning the partial result
// with Interrupted set. It is a thin driver over the ask/tell Engine — the
// loop asks for the next query, evaluates it on p, and tells the outcome
// back; external evaluators can run the identical trajectory through
// Engine (or the service layers in internal/session and internal/server)
// directly.
func OptimizeCtx(ctx context.Context, p problem.Problem, cfg Config, rng *rand.Rand) (*Result, error) {
	eng, err := NewEngine(p, cfg, rng)
	if err != nil {
		return nil, err
	}
	return eng.drive(ctx)
}

// noteFit records one fitted model's NLML and restart bookkeeping into the
// in-flight iteration event and the fit counters. No-op when telemetry is
// off; it only reads values the fit already computed.
func (st *state) noteFit(iter int, m *gp.Model, fusedHigh bool) {
	if st.telem == nil {
		return
	}
	info := m.FitInfo()
	if ev := st.ev; ev != nil && ev.Iter == iter {
		if fusedHigh {
			ev.NLMLHigh = append(ev.NLMLHigh, m.NLML())
		} else {
			ev.NLMLLow = append(ev.NLMLLow, m.NLML())
		}
		ev.FitRestarts += info.Restarts
		ev.FitDiverged += info.Diverged
	}
	if st.met != nil {
		st.met.fitRestarts.Add(uint64(info.Restarts))
		st.met.fitDiverged.Add(uint64(info.Diverged))
	}
}

// finish assembles the terminal Result fields from the current state.
func (st *state) finish(context.Context) *Result {
	res := st.res
	if bx, be, feas := bestOf(st.targetData()); bx != nil {
		res.BestX = bx
		res.Best = be
		res.Feasible = feas
	}
	res.EquivalentSims = st.cost
	if fp, ok := st.p.(interface{ Faults() *robust.FaultLog }); ok {
		res.Faults = fp.Faults().Snapshot()
	}
	return res
}

// bestOf returns the best observation of a dataset under the constrained
// ordering (feasible-first). The boolean reports whether it is feasible.
func bestOf(d *dataset) ([]float64, problem.Evaluation, bool) {
	if len(d.X) == 0 {
		return nil, problem.Evaluation{}, false
	}
	bi := 0
	be := rowEval(d.Y[0])
	for i := 1; i < len(d.X); i++ {
		e := rowEval(d.Y[i])
		if problem.Better(e, be) {
			bi, be = i, e
		}
	}
	return d.X[bi], be, be.Feasible()
}

func rowEval(row []float64) problem.Evaluation {
	return problem.Evaluation{Objective: row[0], Constraints: row[1:]}
}
