package baselines

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/mfgp"
	"repro/internal/problem"
	"repro/internal/stats"
)

// GASPAD constants: each iteration prescreens gaspadPool DE children bred
// from the gaspadParents best evaluated points, ranking them by the lower
// confidence bound µ − gaspadBeta·σ; gaspadF / gaspadCR are the DE mutation
// weight and crossover rate.
const (
	gaspadPool    = 50
	gaspadParents = 20
	gaspadBeta    = 2.0
	gaspadF       = 0.8
	gaspadCR      = 0.8
)

// GASPADConfig tunes the surrogate-assisted evolutionary optimizer.
type GASPADConfig struct {
	// Budget is the total number of target-fidelity simulations (> 0).
	Budget int
	// Init is the Latin-hypercube initialization size (default 40).
	Init int
	// GPRestarts / GPMaxIter / RefitEvery tune surrogate training.
	GPRestarts, GPMaxIter, RefitEvery int
	// FixedNoise pins GP observation noise.
	FixedNoise *float64
	// Callback observes every simulation.
	Callback func(core.Observation)
	// Workers bounds goroutines for surrogate training and child
	// prescreening (0 = default, 1 = serial); results are bit-identical for
	// every setting.
	Workers int
}

func (c *GASPADConfig) defaults() error {
	if c.Budget <= 0 {
		return errors.New("baselines: GASPAD Budget must be positive")
	}
	if c.Init <= 0 {
		c.Init = 40
	}
	if c.Init >= c.Budget {
		return fmt.Errorf("baselines: GASPAD Init %d must be below Budget %d", c.Init, c.Budget)
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

// GASPAD runs the surrogate-model-assisted evolutionary algorithm: each
// iteration breeds a pool of DE children from the best evaluated points,
// ranks them by a constrained lower-confidence-bound criterion on GP
// surrogates, and simulates only the top-ranked child at the problem's
// target fidelity (problem.TargetFidelity). Each output's
// surrogate is the engine's rung-0 SE-ARD GP (mfgp.FitBase), warm-started
// from the previous fit and re-factorized under frozen hyperparameters
// between RefitEvery refits. Failed or non-finite evaluations are charged
// and recorded in History with Eval.Failed set, but never trained on.
func GASPAD(p problem.Problem, cfg GASPADConfig, rng *rand.Rand) (*core.Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	d := p.Dim()
	nc := p.NumConstraints()
	nOut := 1 + nc
	lo, hi := p.Bounds()
	target := problem.TargetFidelity(p)

	res := &core.Result{}
	var X [][]float64
	var Y [][]float64
	record := func(iter int, x []float64) {
		e, err := problem.EvaluateRich(p, x, target)
		if err != nil || e.Failed || !e.IsFinite() {
			e.Failed = true
			res.NumFailed++
		} else {
			X = append(X, append([]float64(nil), x...))
			Y = append(Y, e.Outputs())
		}
		res.NumHigh++
		ob := core.Observation{Iter: iter, X: append([]float64(nil), x...),
			Fid: target, Eval: e, CumCost: float64(res.NumHigh)}
		res.History = append(res.History, ob)
		if cfg.Callback != nil {
			cfg.Callback(ob)
		}
	}
	for _, x := range stats.LatinHypercube(rng, lo, hi, cfg.Init) {
		record(-1, x)
	}

	warm := make([][]float64, nOut)
	for iter := 0; res.NumHigh < cfg.Budget; iter++ {
		models := make([]*gp.Model, nOut)
		for k := range models {
			y := make([]float64, len(Y))
			for i, row := range Y {
				y[i] = row[k]
			}
			m, err := mfgp.FitBase(X, y, d, mfgp.MultiLevelConfig{
				Restarts: cfg.GPRestarts, MaxIter: cfg.GPMaxIter, FixedNoise: cfg.FixedNoise,
				WarmStarts: [][]float64{warm[k]}, SkipTraining: iter%cfg.RefitEvery != 0,
				Workers: cfg.Workers,
			}, rng)
			if err != nil {
				return nil, fmt.Errorf("baselines: GASPAD iter %d output %d: %w", iter, k, err)
			}
			warm[k] = m.Hyper()
			models[k] = m
		}

		parents := topParents(X, Y, gaspadParents)
		children := breed(rng, parents, lo, hi)
		best := pickByConstrainedLCB(models, children, nc, cfg.Workers)
		if duplicateIn(X, best) {
			best = stats.UniformInBox(rng, lo, hi, 1)[0]
		}
		record(iter, best)
	}

	bx, be, feas := bestObservation(X, Y)
	res.BestX = bx
	res.Best = be
	res.Feasible = feas
	res.EquivalentSims = float64(res.NumHigh)
	return res, nil
}

// topParents returns the n best evaluated points under the constrained
// ordering.
func topParents(X [][]float64, Y [][]float64, n int) [][]float64 {
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	evalOf := func(i int) problem.Evaluation {
		return problem.Evaluation{Objective: Y[i][0], Constraints: Y[i][1:]}
	}
	sort.Slice(idx, func(a, b int) bool { return problem.Better(evalOf(idx[a]), evalOf(idx[b])) })
	if n > len(idx) {
		n = len(idx)
	}
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = X[idx[i]]
	}
	return out
}

// breed produces gaspadPool children by DE/rand/1/bin over the parent pool,
// reflected into the box.
func breed(rng *rand.Rand, parents [][]float64, lo, hi []float64) [][]float64 {
	d := len(lo)
	np := len(parents)
	children := make([][]float64, gaspadPool)
	for c := range children {
		child := make([]float64, d)
		base := parents[rng.Intn(np)]
		a := parents[rng.Intn(np)]
		b := parents[rng.Intn(np)]
		jRand := rng.Intn(d)
		for j := 0; j < d; j++ {
			if j == jRand || rng.Float64() < gaspadCR {
				child[j] = base[j] + gaspadF*(a[j]-b[j])
			} else {
				child[j] = base[j]
			}
			if child[j] < lo[j] {
				child[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])*0.1
			} else if child[j] > hi[j] {
				child[j] = hi[j] - rng.Float64()*(hi[j]-lo[j])*0.1
			}
		}
		children[c] = child
	}
	return children
}

// pickByConstrainedLCB ranks children by the feasibility rule applied to
// LCB values: a child whose constraint LCBs are all negative (optimistically
// feasible) beats any optimistically-infeasible child; ties break on the
// objective LCB, then on predicted violation. The posterior evaluations fan
// across workers via acq.EvalBatch; the selection itself walks children in
// order, so the winner is independent of the worker count.
func pickByConstrainedLCB(models []*gp.Model, children [][]float64, nc, workers int) []float64 {
	objLCB := acq.EvalBatch(workers, func(x []float64) float64 {
		mu, va := models[0].PredictLatent(x)
		return acq.LCB(mu, va, gaspadBeta)
	}, children)
	consLCB := make([][]float64, nc)
	for i := 0; i < nc; i++ {
		m := models[1+i]
		consLCB[i] = acq.EvalBatch(workers, func(x []float64) float64 {
			cm, cv := m.PredictLatent(x)
			return acq.LCB(cm, cv, gaspadBeta)
		}, children)
	}
	type scored struct {
		x         []float64
		feasible  bool
		objLCB    float64
		violation float64
	}
	best := scored{objLCB: 0, violation: 0}
	first := true
	for ci, c := range children {
		s := scored{x: c, feasible: true, objLCB: objLCB[ci]}
		for i := 0; i < nc; i++ {
			if l := consLCB[i][ci]; l >= 0 {
				s.feasible = false
				s.violation += l
			}
		}
		if first || betterScored(s.feasible, s.objLCB, s.violation, best.feasible, best.objLCB, best.violation) {
			best = s
			first = false
		}
	}
	return best.x
}

func betterScored(aFeas bool, aObj, aViol float64, bFeas bool, bObj, bViol float64) bool {
	switch {
	case aFeas && !bFeas:
		return true
	case !aFeas && bFeas:
		return false
	case aFeas:
		return aObj < bObj
	default:
		return aViol < bViol
	}
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
