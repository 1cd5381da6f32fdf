// Fidelity-ladder proposals: Algorithm 1 over an ordered ladder of K ≥ 1
// simulation accuracies. Per output the surrogate is the recursive K-level
// NARGP chain (mfgp.MultiLevel); the §3.4 fidelity switch generalizes to a
// cost-weighted rung selector that evaluates at the cheapest rung still
// carrying useful information per unit cost, and falls through to the target
// rung when every cheaper posterior is already resolved. The paper's
// two-fidelity algorithm is the K = 2 case: a two-level chain and the
// original "HIGH iff σ²_l,max < (1+Nc)·γ" rule (testdata/k2_golden.json pins
// its trajectories). K = 1 is the WEIBO baseline: one SE-ARD GP per output
// and a single wEI maximization at the target fidelity.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/acq"
	"repro/internal/gp"
	"repro/internal/mfgp"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// rungDecision is the outcome of one generalized §3.4 rung selection.
type rungDecision struct {
	rung      int
	sigma2Max float64   // max standardized sub-target chain variance at x
	threshold float64   // (1+Nc)·γ
	vars      []float64 // standardized chain variance per sub-target rung
	hasSigma2 bool
	forced    bool
}

// chooseRung generalizes the §3.4 two-fidelity criterion to a K-rung ladder.
// vars[r] is the maximum (over outputs) standardized posterior variance of
// the chain at rung r < K-1; costs are the ladder's per-rung γ_k. The target
// rung is selected when every sub-target variance is below the paper's
// threshold (1+Nc)·γ — more cheap data would not sharpen any cheaper level.
// Otherwise the evaluation goes to the under-resolved rung with the best
// variance per unit cost (ties to the cheaper rung).
//
// With K = 2 this is exactly the paper's rule: vars = [σ²_l,max], and the
// decision degenerates to "HIGH iff σ²_l,max < (1+Nc)·γ".
func chooseRung(vars, costs []float64, nc int, gamma float64) rungDecision {
	target := len(costs) - 1
	threshold := (1 + float64(nc)) * gamma
	maxVar := 0.0
	for _, v := range vars {
		if v > maxVar {
			maxVar = v
		}
	}
	dec := rungDecision{
		rung:      target,
		sigma2Max: maxVar,
		threshold: threshold,
		vars:      vars,
		hasSigma2: true,
	}
	if maxVar < threshold {
		return dec
	}
	bestScore := math.Inf(-1)
	for r, v := range vars {
		if v < threshold {
			continue
		}
		if score := v / costs[r]; score > bestScore {
			bestScore = score
			dec.rung = r
		}
	}
	return dec
}

// fitLadder trains every output's surrogate, walking the degradation ladder
// on failure. The rung-0 GP is fitted first; a failed fit is retried with
// the previous hyperparameters frozen (DegradeWarmHypers), and when that
// fails too no surrogate is usable and the iteration explores randomly
// (DegradeRandom). The fused chain is then stacked on that GP, retried frozen
// the same way, and on failure the output runs on its rung-0 GP alone
// (DegradeLowOnly): low[k] is always set, chains[k] is nil for such outputs.
// On a one-rung ladder the rung-0 GP is the target surrogate and no chain is
// stacked: chains[k] is nil for every output.
func (st *state) fitLadder(iter int, fullRefit bool, span *telemetry.Span) (chains []*mfgp.MultiLevel, low []*gp.Model, ok bool) {
	cfg := &st.cfg
	target := st.ladder.Target()
	lowX, lowView := st.ds(0).window(cfg.MaxLowData)
	upX := make([][][]float64, target)
	for r := 1; r <= target; r++ {
		upX[r-1] = st.ds(r).X
	}
	chains = make([]*mfgp.MultiLevel, st.nOut)
	low = make([]*gp.Model, st.nOut)
	for k := 0; k < st.nOut; k++ {
		warm := st.warm[k]
		mlCfg := mfgp.MultiLevelConfig{
			Restarts: cfg.GPRestarts, MaxIter: cfg.GPMaxIter,
			FixedNoise: cfg.FixedNoise, Propagation: cfg.Propagation,
			NumSamples: cfg.NumSamples, Inducing: cfg.LowRankAfter,
			Workers: cfg.Workers, Span: span,
			WarmStarts:   warm,
			SkipTraining: !fullRefit,
			// Between full refits only the sub-target levels freeze; the small
			// target-level GP always retrains.
			TrainTarget: true,
		}
		frozen := mlCfg
		frozen.SkipTraining, frozen.TrainTarget = true, false

		lowY := lowView.column(k)
		lm, err := mfgp.FitBase(lowX, lowY, st.d, mlCfg, st.rng)
		if err != nil && warm[0] != nil {
			var err2 error
			if lm, err2 = mfgp.FitBase(lowX, lowY, st.d, frozen, st.rng); err2 == nil {
				st.degrade(iter, DegradeWarmHypers, k, fmt.Errorf("low fit: %w", err))
				err = nil
			}
		}
		if err != nil {
			st.degrade(iter, DegradeRandom, k, fmt.Errorf("low fit: %w", err))
			return nil, nil, false
		}
		warm[0] = lm.Hyper()
		low[k] = lm
		st.noteFit(iter, lm, target == 0)
		if target == 0 {
			continue
		}

		upY := make([][]float64, target)
		for r := 1; r <= target; r++ {
			upY[r-1] = st.ds(r).column(k)
		}
		chain, err := mfgp.FitOnBase(lm, upX, upY, mlCfg, st.rng)
		if err != nil && warm[target] != nil {
			var err2 error
			if chain, err2 = mfgp.FitOnBase(lm, upX, upY, frozen, st.rng); err2 == nil {
				st.degrade(iter, DegradeWarmHypers, k, fmt.Errorf("fusion fit: %w", err))
				err = nil
			}
		}
		if err != nil {
			st.degrade(iter, DegradeLowOnly, k, fmt.Errorf("fusion fit: %w", err))
			continue
		}
		for l := 1; l <= target; l++ {
			warm[l] = chain.Level(l).Hyper()
		}
		chains[k] = chain
		st.noteFit(iter, chain.Level(target), true)
	}
	return chains, low, true
}

// chooseEvalRung computes the per-rung standardized chain variances at xt and
// applies the generalized §3.4 rule. Degraded (low-only) outputs contribute
// their rung-0 variance only — with no chain there is no evidence that a
// higher intermediate rung needs data for them.
func (st *state) chooseEvalRung(chains []*mfgp.MultiLevel, low []*gp.Model, xt []float64) rungDecision {
	target := st.ladder.Target()
	if st.cfg.ForceHighFidelity {
		return rungDecision{rung: target, forced: true}
	}
	vars := make([]float64, target)
	for r := 0; r < target; r++ {
		for k := 0; k < st.nOut; k++ {
			var va, std float64
			switch {
			case r == 0:
				_, va = low[k].PredictLatent(xt)
				std = low[k].OutputStd()
			case chains[k] != nil:
				_, va = chains[k].PredictLevel(xt, r)
				std = chains[k].Level(r).OutputStd()
			default:
				continue
			}
			if v := va / (std * std); v > vars[r] {
				vars[r] = v
			}
		}
	}
	return chooseRung(vars, st.ladder.Costs(), st.nc, st.cfg.Gamma)
}

// isDuplicateAtRung reports whether xt coincides (to numerical precision)
// with a point already evaluated at rung r.
func (st *state) isDuplicateAtRung(xt []float64, r int) bool {
	for _, x := range st.ds(r).X {
		d2 := 0.0
		for j := range x {
			dd := x[j] - xt[j]
			d2 += dd * dd
		}
		if d2 < 1e-16 {
			return true
		}
	}
	return false
}

// fantasizeLadder produces the synthetic per-output observation batch
// acquisition substitutes for a pending suggestion at rung r while its real
// outcome is outstanding (Config.Fantasy): the posterior mean at that rung
// from the model the next slot trains against — the chain level, or the
// rung-0 GP of a low-only output (kriging-believer) — or the per-output worst
// value observed at the rung, the pessimistic lie under minimization
// (constant-liar, falling back to the believer mean on an empty rung).
func (st *state) fantasizeLadder(chains []*mfgp.MultiLevel, low []*gp.Model, xt []float64, r int) []float64 {
	out := make([]float64, st.nOut)
	believe := func(k int) float64 {
		if chains[k] != nil {
			mu, _ := chains[k].PredictLevel(xt, r)
			return mu
		}
		mu, _ := low[k].PredictLatent(xt)
		return mu
	}
	switch st.cfg.Fantasy {
	case FantasyConstantLiar:
		ds := st.ds(r)
		for k := 0; k < st.nOut; k++ {
			if len(ds.Y) == 0 {
				out[k] = believe(k)
				continue
			}
			lie := ds.Y[0][k]
			for _, row := range ds.Y[1:] {
				if row[k] > lie {
					lie = row[k]
				}
			}
			out[k] = lie
		}
	default: // FantasyKrigingBeliever
		for k := 0; k < st.nOut; k++ {
			out[k] = believe(k)
		}
	}
	return out
}

// proposeLadder computes the next adaptive query — the body of one
// Algorithm 1 iteration up to (but excluding) the simulation itself: fit the
// per-output chains (walking the degradation ladder on failure), maximize the
// rung-0 and target-rung acquisitions with the §4.1 multiple-starting-point
// strategy, and pick the evaluation rung by the §3.4 criterion.
//
// iter labels the slot being proposed (it may run ahead of st.iter while a
// batch is outstanding). When wantFantasy is set the third return value
// carries the synthetic outputs (per Config.Fantasy) that stand in for the
// point's observation while later batch slots are proposed; it is nil for a
// random-exploration fallback, where no surrogate exists to fantasize from.
func (st *state) proposeLadder(iter int, span *telemetry.Span, wantFantasy bool) ([]float64, problem.Fidelity, []float64) {
	cfg := &st.cfg
	target := st.ladder.Target()
	var ev *telemetry.IterationEvent
	if st.telem != nil {
		// The in-flight event: decision fields are filled here, the outcome
		// fields when the observation is told back (observeTelemetry).
		ev = &telemetry.IterationEvent{Iter: iter, Nc: st.nc, Gamma: cfg.Gamma}
		st.ev = ev
	}
	var tFit time.Time
	if ev != nil {
		tFit = time.Now()
	}
	var chains []*mfgp.MultiLevel
	var low []*gp.Model
	var ok bool
	if cfg.Incremental {
		var skipped bool
		chains, low, ok, skipped = st.incrementalLadder(iter, span)
		if ev != nil {
			ev.FitSkipped = skipped
			ev.SinceRefit = st.sinceRefit
		}
	} else {
		fullRefit := iter%cfg.RefitEvery == 0
		chains, low, ok = st.fitLadder(iter, fullRefit, span)
	}
	if ev != nil {
		if ok && low[0].IsLowRank() {
			ev.LowRank = true
		}
		d := time.Since(tFit)
		ev.FitMs = float64(d.Nanoseconds()) / 1e6
		if st.met != nil {
			st.met.fitSeconds.Observe(d.Seconds())
		}
	}
	if !ok {
		// Random exploration keeps the budget moving while the training sets
		// recover (e.g. after a burst of failed evaluations).
		xt := stats.UniformInBox(st.rng, st.lo, st.hi, 1)[0]
		rung := 0
		if cfg.ForceHighFidelity {
			rung = target
		}
		if ev != nil {
			ev.Fidelity = st.ladder.Name(rung)
			if st.ladder.Rungs() > 2 {
				ev.Rung = rung
			}
			ev.ForcedHigh = cfg.ForceHighFidelity
		}
		return xt, st.fidOf(rung), nil
	}

	// Posterior adapters (objective, constraints): the rung-0 GP for the
	// cheap acquisition, the fused target level for the expensive one. A nil
	// chain (low-only degradation, or a one-rung ladder) aliases the rung-0
	// GP for both.
	rungPost := func(level int) (acq.Posterior, []acq.Posterior) {
		post := make([]acq.Posterior, st.nOut)
		for k := range post {
			if m := chains[k]; level > 0 && m != nil {
				post[k] = func(x []float64) (float64, float64) { return m.PredictLevel(x, level) }
			} else {
				m := low[k]
				post[k] = func(x []float64) (float64, float64) { return m.PredictLatent(x) }
			}
		}
		return post[0], post[1:]
	}

	// Incumbents: the cheapest and the target rung seed the §4.1 starts.
	tauHighX, tauHighEval, hasHighFeasible := bestOf(st.ds(target))
	if ev != nil && hasHighFeasible {
		ev.HasTauHigh = true
		ev.TauHigh = tauHighEval.Objective
	}
	mspCfg := cfg.MSP
	var incHigh, incLow []float64
	if !cfg.DisableIncumbentSeeding && hasHighFeasible {
		incHigh = tauHighX
	}
	var tAcq time.Time
	var mspLow, mspHigh optimize.MSPStats
	if ev != nil {
		tAcq = time.Now()
		mspCfg.Span = span
	}

	// Rung-0 acquisition → x*_l, which seeds the target-rung acquisition. A
	// one-rung ladder has no cheaper rung: its single MSP runs on the target.
	if target > 0 {
		tauLowX, tauLowEval, hasLowFeasible := bestOf(st.ds(0))
		if !cfg.DisableIncumbentSeeding && hasLowFeasible {
			incLow = tauLowX
		}
		lowObj, lowCons := rungPost(0)
		acqLow, bootstrapLow := acquisition(lowObj, lowCons, tauLowEval, hasLowFeasible)
		if ev != nil {
			mspCfg.Stats = &mspLow
		}
		xStarLow, acqLowVal := optimize.MaximizeMSP(st.rng, acqLow, st.box, incHigh, incLow, mspCfg, cfg.Workers)
		mspCfg.Extra = append(append([][]float64(nil), cfg.MSP.Extra...), xStarLow)
		if ev != nil {
			ev.HasTauLow = hasLowFeasible
			if hasLowFeasible {
				ev.TauLow = tauLowEval.Objective
			}
			ev.AcqLow = acqLowVal
			ev.BootstrapLow = bootstrapLow
			ev.MSPStartsLow = mspLow.Starts
			ev.MSPDivergedLow = mspLow.Diverged
		}
	}

	// Target-rung acquisition; §4.2: with no feasible target point yet it
	// chases predicted feasibility.
	fusedObj, fusedCons := rungPost(target)
	acqHigh, bootstrap := acquisition(fusedObj, fusedCons, tauHighEval, hasHighFeasible)
	if ev != nil {
		mspCfg.Stats = &mspHigh
	}
	xt, acqHighVal := optimize.MaximizeMSP(st.rng, acqHigh, st.box, incHigh, incLow, mspCfg, cfg.Workers)
	if ev != nil {
		d := time.Since(tAcq)
		ev.AcqMs = float64(d.Nanoseconds()) / 1e6
		if st.met != nil {
			st.met.acqSeconds.Observe(d.Seconds())
		}
		ev.AcqHigh = acqHighVal
		ev.Bootstrap = bootstrap
		ev.MSPStartsHigh = mspHigh.Starts
		ev.MSPDivergedHigh = mspHigh.Diverged
	}

	// Degenerate-query guard: re-sampling an existing point adds no
	// information; fall back to a random exploration point.
	dec := st.chooseEvalRung(chains, low, xt)
	if st.isDuplicateAtRung(xt, dec.rung) {
		xt = stats.UniformInBox(st.rng, st.lo, st.hi, 1)[0]
		dec = st.chooseEvalRung(chains, low, xt)
		if ev != nil {
			ev.DuplicateFallback = true
		}
	}
	if ev != nil {
		// §3.4 decision record: the final comparison that chose the rung.
		ev.Fidelity = st.ladder.Name(dec.rung)
		if st.ladder.Rungs() > 2 {
			ev.Rung = dec.rung
			ev.RungVars = dec.vars
		}
		ev.Sigma2Max = dec.sigma2Max
		ev.Threshold = dec.threshold
		ev.HasSigma2 = dec.hasSigma2
		ev.ForcedHigh = dec.forced
	}
	var fantasy []float64
	if wantFantasy {
		fantasy = st.fantasizeLadder(chains, low, xt, dec.rung)
	}
	return xt, st.fidOf(dec.rung), fantasy
}

// acquisition builds one rung's acquisition: wEI (eq. 6) against the rung's
// feasible incumbent tau, or, while the rung has no feasible point on a
// constrained problem, the eq. 13 feasibility objective (bootstrap reports
// which). An unconstrained rung with no data to beat maximizes plain EI.
func acquisition(obj acq.Posterior, cons []acq.Posterior, tau problem.Evaluation, hasFeasible bool) (a func([]float64) float64, bootstrap bool) {
	switch {
	case hasFeasible:
		return acq.WEI(obj, cons, tau.Objective), false
	case len(cons) > 0:
		fo := acq.FeasibilityObjective(cons)
		return func(x []float64) float64 { return -fo(x) }, true
	default:
		return acq.WEI(obj, nil, math.Inf(1)), false
	}
}
