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

// Objective is a scalar function with gradient. The gradient slice is owned
// by the caller and must be fully overwritten.
type Objective func(x []float64, grad []float64) float64

// L-BFGS constants: history pairs, the gradient and relative-decrease
// stopping tolerances, and the initial line-search step.
const (
	lbfgsMemory   = 10
	lbfgsGradTol  = 1e-6
	lbfgsFuncTol  = 1e-10
	lbfgsStepInit = 1.0
)

// LBFGSConfig tunes the quasi-Newton minimizer.
type LBFGSConfig struct {
	MaxIter int // maximum iterations (default 200)
}

// Result reports the outcome of a minimization.
type Result struct {
	X         []float64
	F         float64
	Gradient  []float64
	Iters     int
	Evals     int
	Converged bool
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
	evals := 0
	eval := func(p []float64, grad []float64) float64 {
		evals++
		return f(p, grad)
	}
	fx := eval(x, g)

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
		xNew, fNew, gNew, ok := wolfeSearch(eval, x, fx, g, d, dg, step0)
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
	res.Evals = evals
	return res
}

// wolfeSearch performs a strong-Wolfe line search along d from x. It returns
// the accepted point, value and gradient, or ok=false when no acceptable step
// was found.
func wolfeSearch(eval func([]float64, []float64) float64,
	x []float64, fx float64, g, d []float64, dg float64, step0 float64) (xn []float64, fn float64, gn []float64, ok bool) {
	const (
		c1      = 1e-4
		c2      = 0.9
		maxTry  = 30
		stepMax = 1e10
	)
	n := len(x)
	phi := func(a float64, grad []float64) (float64, float64, []float64) {
		p := make([]float64, n)
		for i := range p {
			p[i] = x[i] + a*d[i]
		}
		f := eval(p, grad)
		return f, linalg.Dot(grad, d), p
	}
	aPrev, fPrev, dgPrev := 0.0, fx, dg
	a := step0
	gTmp := make([]float64, n)
	var fA, dgA float64
	var pA []float64
	for try := 0; try < maxTry; try++ {
		fA, dgA, pA = phi(a, gTmp)
		if math.IsNaN(fA) || math.IsInf(fA, 0) {
			a = 0.5 * (aPrev + a)
			continue
		}
		if fA > fx+c1*a*dg || (try > 0 && fA >= fPrev) {
			return zoom(eval, x, fx, dg, d, aPrev, a, fPrev, dgPrev, c1, c2)
		}
		if math.Abs(dgA) <= -c2*dg {
			gOut := append([]float64(nil), gTmp...)
			return pA, fA, gOut, true
		}
		if dgA >= 0 {
			return zoom(eval, x, fx, dg, d, a, aPrev, fA, dgA, c1, c2)
		}
		aPrev, fPrev, dgPrev = a, fA, dgA
		a *= 2
		if a > stepMax {
			break
		}
	}
	return nil, 0, nil, false
}

// zoom brackets a Wolfe point in [aLo, aHi] by bisection/interpolation.
func zoom(eval func([]float64, []float64) float64,
	x []float64, fx, dg0 float64, d []float64,
	aLo, aHi, fLo, dgLo, c1, c2 float64) (xn []float64, fn float64, gn []float64, ok bool) {
	n := len(x)
	gTmp := make([]float64, n)
	phi := func(a float64) (float64, float64, []float64) {
		p := make([]float64, n)
		for i := range p {
			p[i] = x[i] + a*d[i]
		}
		f := eval(p, gTmp)
		return f, linalg.Dot(gTmp, d), p
	}
	for try := 0; try < 30; try++ {
		a := 0.5 * (aLo + aHi)
		fA, dgA, pA := phi(a)
		if math.IsNaN(fA) || fA > fx+c1*a*dg0 || fA >= fLo {
			aHi = a
			continue
		}
		if math.Abs(dgA) <= -c2*dg0 {
			gOut := append([]float64(nil), gTmp...)
			return pA, fA, gOut, true
		}
		if dgA*(aHi-aLo) >= 0 {
			aHi = aLo
		}
		aLo, fLo = a, fA
		if math.Abs(aHi-aLo) < 1e-14*(1+math.Abs(aLo)) {
			gOut := append([]float64(nil), gTmp...)
			return pA, fA, gOut, true
		}
	}
	// Accept the best sufficient-decrease point found, if any.
	if aLo > 0 {
		fA, _, pA := phi(aLo)
		if fA < fx {
			gOut := append([]float64(nil), gTmp...)
			return pA, fA, gOut, true
		}
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
// central finite differences with step h (default 1e-6 when h <= 0).
func NumericalGradient(f func([]float64) float64, h float64) Objective {
	if h <= 0 {
		h = 1e-6
	}
	return func(x, grad []float64) float64 {
		fx := f(x)
		p := append([]float64(nil), x...)
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
