package baselines

import (
	"errors"
	"math/rand"

	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/problem"
)

// DEConfig tunes the plain differential-evolution baseline. The population
// is 10·d capped at 100 (min 8); F and CR are optimize.DE's 0.7 / 0.9.
type DEConfig struct {
	// Budget is the total number of target-fidelity simulations (> 0).
	Budget int
	// Callback observes every simulation.
	Callback func(core.Observation)
}

// penaltyWeight converts constraint violation into the scalar DE fitness.
// It implements a static-penalty version of Deb's feasibility rule: any
// violation dominates objective differences of realistic magnitude.
const penaltyWeight = 1e6

// DE runs the evolutionary baseline: DE/rand/1/bin on a penalized scalar
// fitness, evaluating every candidate at the problem's target fidelity.
func DE(p problem.Problem, cfg DEConfig, rng *rand.Rand) (*core.Result, error) {
	if cfg.Budget <= 0 {
		return nil, errors.New("baselines: DE Budget must be positive")
	}
	pop := min(max(10*p.Dim(), 8), 100)
	target := problem.TargetFidelity(p)
	lo, hi := p.Bounds()
	box := optimize.NewBox(lo, hi)

	res := &core.Result{}
	var bestX []float64
	var bestEval problem.Evaluation
	haveBest := false
	iter := 0
	fitness := func(x []float64) float64 {
		e := p.Evaluate(x, target)
		res.NumHigh++
		ob := core.Observation{Iter: iter, X: append([]float64(nil), x...),
			Fid: target, Eval: e, CumCost: float64(res.NumHigh)}
		res.History = append(res.History, ob)
		if cfg.Callback != nil {
			cfg.Callback(ob)
		}
		iter++
		if !haveBest || problem.Better(e, bestEval) {
			haveBest = true
			bestEval = e
			bestX = append([]float64(nil), x...)
		}
		return e.Objective + penaltyWeight*e.Violation()
	}
	optimize.DE(rng, fitness, box, optimize.DEConfig{
		PopSize:  pop,
		MaxGen:   1 << 30, // budget-bound, not generation-bound
		MaxEvals: cfg.Budget,
	})
	res.BestX = bestX
	res.Best = bestEval
	res.Feasible = bestEval.Feasible()
	res.EquivalentSims = float64(res.NumHigh)
	return res, nil
}
