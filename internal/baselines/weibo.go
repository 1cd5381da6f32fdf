// Package baselines implements the three comparison algorithms of the
// paper's §5: WEIBO (single-fidelity GP Bayesian optimization with weighted
// expected improvement, Lyu et al. 2018), GASPAD (surrogate-assisted
// evolutionary search prescreened by a lower confidence bound, Liu et al.
// 2014) and plain differential evolution (Liu et al. 2009). All three
// evaluate exclusively at high fidelity; their results share the
// core.Result type so the experiment harness treats every algorithm
// uniformly.
package baselines

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/stats"
)

// WEIBOConfig tunes the single-fidelity wEI Bayesian optimizer.
type WEIBOConfig struct {
	// Budget is the total number of high-fidelity simulations (> 0),
	// including the Init initialization points.
	Budget int
	// Init is the Latin-hypercube initialization size (default 40, the
	// paper's power-amplifier setting).
	Init int
	// MSP configures acquisition maximization.
	MSP optimize.MSPConfig
	// GPRestarts / GPMaxIter / RefitEvery tune surrogate training.
	GPRestarts, GPMaxIter, RefitEvery int
	// FixedNoise pins GP observation noise (default 1e-4, standardized).
	FixedNoise *float64
	// Callback observes every simulation.
	Callback func(core.Observation)
	// Workers bounds goroutines for surrogate training and acquisition
	// maximization (0 = default, 1 = serial). When MSP.Workers is unset it
	// inherits this value. Results are bit-identical for every setting.
	Workers int
}

func (c *WEIBOConfig) defaults() error {
	if c.Budget <= 0 {
		return errors.New("baselines: WEIBO Budget must be positive")
	}
	if c.Init <= 0 {
		c.Init = 40
	}
	if c.Init >= c.Budget {
		return fmt.Errorf("baselines: WEIBO Init %d must be below Budget %d", c.Init, c.Budget)
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
	if c.FixedNoise == nil {
		v := 1e-4
		c.FixedNoise = &v
	}
	return nil
}

// WEIBO runs single-fidelity constrained Bayesian optimization with the
// weighted expected improvement acquisition (eq. 6) and MSP maximization.
func WEIBO(p problem.Problem, cfg WEIBOConfig, rng *rand.Rand) (*core.Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	d := p.Dim()
	nc := p.NumConstraints()
	nOut := 1 + nc
	lo, hi := p.Bounds()
	box := optimize.NewBox(lo, hi)
	if cfg.MSP.Workers == 0 {
		cfg.MSP.Workers = cfg.Workers
	}

	res := &core.Result{}
	var X [][]float64
	var Y [][]float64
	record := func(iter int, x []float64) problem.Evaluation {
		e := p.Evaluate(x, problem.High)
		X = append(X, append([]float64(nil), x...))
		Y = append(Y, e.Outputs())
		res.NumHigh++
		ob := core.Observation{Iter: iter, X: append([]float64(nil), x...),
			Fid: problem.High, Eval: e, CumCost: float64(res.NumHigh)}
		res.History = append(res.History, ob)
		if cfg.Callback != nil {
			cfg.Callback(ob)
		}
		return e
	}
	for _, x := range stats.LatinHypercube(rng, lo, hi, cfg.Init) {
		record(-1, x)
	}

	surr := newSurrogates(d, nOut, cfg.GPRestarts, cfg.GPMaxIter, cfg.FixedNoise, cfg.Workers)

	for iter := 0; res.NumHigh < cfg.Budget; iter++ {
		fullRefit := iter%cfg.RefitEvery == 0
		models, err := surr.models(X, Y, fullRefit, rng)
		if err != nil {
			return nil, fmt.Errorf("baselines: WEIBO iter %d %w", iter, err)
		}
		obj := func(x []float64) (float64, float64) { return models[0].PredictLatent(x) }
		cons := make([]acq.Posterior, nc)
		for i := 0; i < nc; i++ {
			m := models[1+i]
			cons[i] = func(x []float64) (float64, float64) { return m.PredictLatent(x) }
		}

		bestX, bestEval, hasFeasible := bestObservation(X, Y)
		var a func([]float64) float64
		var inc []float64
		if hasFeasible {
			a = acq.WEI(obj, cons, bestEval.Objective)
			inc = bestX
		} else if nc > 0 {
			fo := acq.FeasibilityObjective(cons)
			a = func(x []float64) float64 { return -fo(x) }
		} else {
			a = acq.WEI(obj, nil, math.Inf(1))
		}
		xt, _ := optimize.MaximizeMSP(rng, a, box, inc, nil, cfg.MSP)
		if duplicateIn(X, xt) {
			xt = stats.UniformInBox(rng, lo, hi, 1)[0]
		}
		record(iter, xt)
	}

	bx, be, feas := bestObservation(X, Y)
	res.BestX = bx
	res.Best = be
	res.Feasible = feas
	res.EquivalentSims = float64(res.NumHigh)
	return res, nil
}

// bestObservation returns the best row under the constrained ordering.
func bestObservation(X [][]float64, Y [][]float64) ([]float64, problem.Evaluation, bool) {
	if len(X) == 0 {
		return nil, problem.Evaluation{}, false
	}
	bi := 0
	be := problem.Evaluation{Objective: Y[0][0], Constraints: Y[0][1:]}
	for i := 1; i < len(X); i++ {
		e := problem.Evaluation{Objective: Y[i][0], Constraints: Y[i][1:]}
		if problem.Better(e, be) {
			bi, be = i, e
		}
	}
	return X[bi], be, be.Feasible()
}

func duplicateIn(X [][]float64, xt []float64) bool {
	for _, x := range X {
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
