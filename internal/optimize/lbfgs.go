// Package optimize provides the numerical optimizers used throughout the
// library: L-BFGS with a strong-Wolfe line search (hyperparameter training,
// acquisition maximization), a differential-evolution engine (the DE
// baseline), and the paper's multiple-starting-point (MSP) driver with
// incumbent-local seeding (§4.1).
package optimize

import (
	"math"

	"repro/internal/linalg"
)

// Objective is a scalar function with an optional gradient. A nil grad asks
// for the value only; otherwise grad is owned by the caller and must be fully
// overwritten.
//
// LBFGS asks for the gradient only at its start point and at line-search
// trial points whose value it has accepted, and there always right after a
// value-only call at the same point. An objective may therefore keep what
// its last value-only call computed, keyed bitwise by the point, and answer
// the gradient call without recomputing the value (NumericalGradient and
// gp.Fit's NLML both do).
type Objective func(x []float64, grad []float64) float64

// L-BFGS constants: history pairs, the gradient and relative-decrease
// stopping tolerances, the initial line-search step, and the strong-Wolfe
// sufficient-decrease (c1) and curvature (c2) parameters.
const (
	lbfgsMemory   = 10
	lbfgsGradTol  = 1e-6
	lbfgsFuncTol  = 1e-10
	lbfgsStepInit = 1.0
	wolfeC1       = 1e-4
	wolfeC2       = 0.9
)

// LBFGSConfig tunes the quasi-Newton minimizer.
type LBFGSConfig struct {
	MaxIter int // maximum iterations (default 200)
}

// Result reports the outcome of a minimization.
type Result struct {
	X          []float64
	F          float64
	Gradient   []float64
	Iters      int
	ValueEvals int // objective calls with grad == nil
	GradEvals  int // objective calls that asked for the gradient
	Converged  bool
}

// counted evaluates an Objective and counts its value-only and gradient
// calls for Result.
type counted struct {
	f             Objective
	values, grads int
}

func (c *counted) value(p []float64) float64 {
	c.values++
	return c.f(p, nil)
}

func (c *counted) grad(p, grad []float64) float64 {
	c.grads++
	return c.f(p, grad)
}

// slope evaluates the gradient at p into grad and returns the directional
// derivative along d.
func (c *counted) slope(p, grad, d []float64) float64 {
	c.grad(p, grad)
	return linalg.Dot(grad, d)
}

// LBFGS minimizes f starting from x0 using limited-memory BFGS with a
// strong-Wolfe cubic line search. x0 is not modified.
func LBFGS(f Objective, x0 []float64, cfg LBFGSConfig) Result {
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 200
	}
	n := len(x0)
	x := append([]float64(nil), x0...)
	g := make([]float64, n)
	ev := &counted{f: f}
	fx := ev.grad(x, g)

	type pair struct {
		s, y []float64
		rho  float64
	}
	var hist []pair
	d := make([]float64, n)
	res := Result{}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if maxAbs(g) < lbfgsGradTol {
			res.Converged = true
			res.Iters = iter
			break
		}
		// Two-loop recursion for d = −H·g.
		copy(d, g)
		alphas := make([]float64, len(hist))
		for i := len(hist) - 1; i >= 0; i-- {
			h := hist[i]
			alphas[i] = h.rho * linalg.Dot(h.s, d)
			linalg.AXPY(-alphas[i], h.y, d)
		}
		if len(hist) > 0 {
			last := hist[len(hist)-1]
			gamma := linalg.Dot(last.s, last.y) / linalg.Dot(last.y, last.y)
			for i := range d {
				d[i] *= gamma
			}
		}
		for i := 0; i < len(hist); i++ {
			h := hist[i]
			beta := h.rho * linalg.Dot(h.y, d)
			linalg.AXPY(alphas[i]-beta, h.s, d)
		}
		for i := range d {
			d[i] = -d[i]
		}
		// Ensure descent; fall back to steepest descent if not.
		dg := linalg.Dot(d, g)
		if dg >= 0 {
			for i := range d {
				d[i] = -g[i]
			}
			dg = -linalg.Dot(g, g)
			hist = hist[:0]
		}
		step0 := lbfgsStepInit
		if iter == 0 {
			// Conservative first step scaled by gradient magnitude.
			if gn := linalg.Norm2(g); gn > 1 {
				step0 = 1 / gn
			}
		}
		xNew, fNew, gNew, ok := wolfeSearch(ev, x, fx, g, d, dg, step0)
		if !ok {
			res.Iters = iter
			break
		}
		s := linalg.SubVec(xNew, x)
		y := linalg.SubVec(gNew, g)
		sy := linalg.Dot(s, y)
		if sy > 1e-12*linalg.Norm2(s)*linalg.Norm2(y) {
			hist = append(hist, pair{s: s, y: y, rho: 1 / sy})
			if len(hist) > lbfgsMemory {
				hist = hist[1:]
			}
		}
		rel := math.Abs(fx-fNew) / math.Max(1, math.Abs(fx))
		x, fx = xNew, fNew
		copy(g, gNew)
		if rel < lbfgsFuncTol {
			res.Converged = true
			res.Iters = iter + 1
			break
		}
		res.Iters = iter + 1
	}
	res.X = x
	res.F = fx
	res.Gradient = g
	res.ValueEvals = ev.values
	res.GradEvals = ev.grads
	return res
}

// stepPoint returns x + a·d as a new slice.
func stepPoint(x, d []float64, a float64) []float64 {
	p := make([]float64, len(x))
	for i := range p {
		p[i] = x[i] + a*d[i]
	}
	return p
}

// wolfeSearch performs a strong-Wolfe line search along d from x. It returns
// the accepted point, value and gradient, or ok=false when no acceptable step
// was found. Each trial point is evaluated value-only; its gradient is asked
// for only once the value passes the sufficient-decrease and fPrev tests,
// the only branches that read the slope.
func wolfeSearch(ev *counted,
	x []float64, fx float64, g, d []float64, dg float64, step0 float64) (xn []float64, fn float64, gn []float64, ok bool) {
	const (
		maxTry  = 30
		stepMax = 1e10
	)
	aPrev, fPrev := 0.0, fx
	gPrev := append([]float64(nil), g...) // gradient at aPrev
	gA := make([]float64, len(x))
	a := step0
	for try := 0; try < maxTry; try++ {
		pA := stepPoint(x, d, a)
		fA := ev.value(pA)
		if math.IsNaN(fA) || math.IsInf(fA, 0) {
			a = 0.5 * (aPrev + a)
			continue
		}
		if fA > fx+wolfeC1*a*dg || (try > 0 && fA >= fPrev) {
			return zoom(ev, x, fx, dg, d, aPrev, a, fPrev, gPrev, gA)
		}
		dgA := ev.slope(pA, gA, d)
		if math.Abs(dgA) <= -wolfeC2*dg {
			return pA, fA, gA, true
		}
		if dgA >= 0 {
			return zoom(ev, x, fx, dg, d, a, aPrev, fA, gA, gPrev)
		}
		aPrev, fPrev = a, fA
		gPrev, gA = gA, gPrev
		a *= 2
		if a > stepMax {
			break
		}
	}
	return nil, 0, nil, false
}

// zoom brackets a Wolfe point in [aLo, aHi] by bisection. gLo holds the
// gradient at aLo and gA is scratch; zoom owns both. Like wolfeSearch it
// evaluates each trial value-only and asks for the gradient only past the
// sufficient-decrease and fLo tests.
func zoom(ev *counted,
	x []float64, fx, dg0 float64, d []float64,
	aLo, aHi, fLo float64, gLo, gA []float64) (xn []float64, fn float64, gn []float64, ok bool) {
	for try := 0; try < 30; try++ {
		a := 0.5 * (aLo + aHi)
		pA := stepPoint(x, d, a)
		fA := ev.value(pA)
		if math.IsNaN(fA) || fA > fx+wolfeC1*a*dg0 || fA >= fLo {
			aHi = a
			continue
		}
		dgA := ev.slope(pA, gA, d)
		if math.Abs(dgA) <= -wolfeC2*dg0 {
			return pA, fA, gA, true
		}
		if dgA*(aHi-aLo) >= 0 {
			aHi = aLo
		}
		aLo, fLo = a, fA
		gLo, gA = gA, gLo
		if math.Abs(aHi-aLo) < 1e-14*(1+math.Abs(aLo)) {
			return pA, fA, gLo, true
		}
	}
	// Accept the best sufficient-decrease point found, if any, with the
	// value and gradient kept when it was accepted.
	if aLo > 0 && fLo < fx {
		return stepPoint(x, d, aLo), fLo, gLo, true
	}
	return nil, 0, nil, false
}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// NumericalGradient wraps a gradient-free function into an Objective using
// central finite differences with step h (default 1e-6 when h <= 0). A
// value-only call keeps its point and value, so the gradient call LBFGS makes
// next at the bitwise-same point costs exactly the 2d probes. The probes
// share one buffer, so f must not retain its argument; the returned
// Objective is not safe for concurrent use.
func NumericalGradient(f func([]float64) float64, h float64) Objective {
	if h <= 0 {
		h = 1e-6
	}
	var (
		last  []float64 // point of the last value-only call (nil before one)
		lastF float64   // its value
		p     []float64 // probe buffer
	)
	return func(x, grad []float64) float64 {
		if grad == nil {
			fx := f(x)
			last = append(last[:0], x...)
			lastF = fx
			return fx
		}
		var fx float64
		if last != nil && linalg.SameBits(last, x) {
			fx = lastF
		} else {
			fx = f(x)
		}
		p = append(p[:0], x...)
		for i := range x {
			save := p[i]
			p[i] = save + h
			up := f(p)
			p[i] = save - h
			dn := f(p)
			p[i] = save
			grad[i] = (up - dn) / (2 * h)
		}
		return fx
	}
}
