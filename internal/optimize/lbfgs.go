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

// lineSearch runs the strong-Wolfe searches of one LBFGS call. It counts
// value-only and gradient calls for Result and owns the search's buffers:
// the trial point and two gradients, reused by every search of the call.
type lineSearch struct {
	f             Objective
	values, grads int
	trial, gA, gB []float64
}

// newLineSearch returns a line search over f whose three buffers split buf
// (length 3n for n-dimensional points).
func newLineSearch(f Objective, buf []float64) lineSearch {
	n := len(buf) / 3
	return lineSearch{f: f, trial: buf[:n:n], gA: buf[n : 2*n : 2*n], gB: buf[2*n : 3*n : 3*n]}
}

func (ls *lineSearch) value(p []float64) float64 {
	ls.values++
	return ls.f(p, nil)
}

func (ls *lineSearch) grad(p, grad []float64) float64 {
	ls.grads++
	return ls.f(p, grad)
}

// slope evaluates the gradient at p into grad and returns the directional
// derivative along d.
func (ls *lineSearch) slope(p, grad, d []float64) float64 {
	ls.grad(p, grad)
	return linalg.Dot(grad, d)
}

// LBFGS minimizes f starting from x0 using limited-memory BFGS with a
// strong-Wolfe cubic line search. x0 is not modified.
//
// A call makes one allocation, which holds every vector of the run: the
// iterate, its gradient and the direction; the line search's trial point
// and two gradients; the candidate curvature pair; and a ring of
// min(lbfgsMemory, MaxIter) history pairs, into which an accepted candidate
// is copied. Iterations allocate nothing, so the allocation count of a call
// does not depend on how many iterations it runs.
func LBFGS(f Objective, x0 []float64, cfg LBFGSConfig) Result {
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 200
	}
	n := len(x0)
	mem := min(lbfgsMemory, cfg.MaxIter)
	buf := make([]float64, (8+2*mem)*n)
	next := func(k int) []float64 {
		v := buf[: k*n : k*n]
		buf = buf[k*n:]
		return v
	}
	x, g, d := next(1), next(1), next(1)
	copy(x, x0)
	ls := newLineSearch(f, next(3))
	sNew, yNew := next(1), next(1)
	// History pair j (0 = oldest) is s_k = sHist[k*n:], y_k = yHist[k*n:]
	// with k = (head+j) % mem.
	sHist, yHist := next(mem), next(mem)
	var rho, alphas [lbfgsMemory]float64
	head, size := 0, 0
	slot := func(j int) int { return (head + j) % mem }
	hs := func(k int) []float64 { return sHist[k*n : (k+1)*n] }
	hy := func(k int) []float64 { return yHist[k*n : (k+1)*n] }

	fx := ls.grad(x, g)
	res := Result{}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if maxAbs(g) < lbfgsGradTol {
			res.Converged = true
			res.Iters = iter
			break
		}
		// Two-loop recursion for d = −H·g.
		copy(d, g)
		for i := size - 1; i >= 0; i-- {
			k := slot(i)
			alphas[i] = rho[k] * linalg.Dot(hs(k), d)
			linalg.AXPY(-alphas[i], hy(k), d)
		}
		if size > 0 {
			k := slot(size - 1)
			gamma := linalg.Dot(hs(k), hy(k)) / linalg.Dot(hy(k), hy(k))
			for i := range d {
				d[i] *= gamma
			}
		}
		for i := 0; i < size; i++ {
			k := slot(i)
			beta := rho[k] * linalg.Dot(hy(k), d)
			linalg.AXPY(alphas[i]-beta, hs(k), d)
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
			size = 0
		}
		step0 := lbfgsStepInit
		if iter == 0 {
			// Conservative first step scaled by gradient magnitude.
			if gn := linalg.Norm2(g); gn > 1 {
				step0 = 1 / gn
			}
		}
		xNew, fNew, gNew, ok := ls.wolfe(x, fx, g, d, dg, step0)
		if !ok {
			res.Iters = iter
			break
		}
		for i := range sNew {
			sNew[i] = xNew[i] - x[i]
			yNew[i] = gNew[i] - g[i]
		}
		sy := linalg.Dot(sNew, yNew)
		if sy > 1e-12*linalg.Norm2(sNew)*linalg.Norm2(yNew) {
			var k int
			if size < mem {
				k = slot(size)
				size++
			} else {
				k = head // overwrite the oldest pair
				head = (head + 1) % mem
			}
			copy(hs(k), sNew)
			copy(hy(k), yNew)
			rho[k] = 1 / sy
		}
		rel := math.Abs(fx-fNew) / math.Max(1, math.Abs(fx))
		// The accepted point is the line search's trial buffer; the old
		// iterate's buffer becomes the next trial buffer.
		x, ls.trial = xNew, x
		fx = fNew
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
	res.ValueEvals = ls.values
	res.GradEvals = ls.grads
	return res
}

// stepInto writes x + a·d into p.
func stepInto(p, x, d []float64, a float64) {
	for i := range p {
		p[i] = x[i] + a*d[i]
	}
}

// wolfe performs a strong-Wolfe line search along d from x. It returns the
// accepted point, value and gradient, or ok=false when no acceptable step
// was found. The point is ls.trial and the gradient one of ls.gA and ls.gB,
// valid until the next search. Each trial point is evaluated value-only; its
// gradient is asked for only once the value passes the sufficient-decrease
// and fPrev tests, the only branches that read the slope.
func (ls *lineSearch) wolfe(x []float64, fx float64, g, d []float64, dg float64, step0 float64) (xn []float64, fn float64, gn []float64, ok bool) {
	const (
		maxTry  = 30
		stepMax = 1e10
	)
	aPrev, fPrev := 0.0, fx
	gPrev, gA := ls.gA, ls.gB // gradient at aPrev, and scratch
	copy(gPrev, g)
	pA := ls.trial
	a := step0
	for try := 0; try < maxTry; try++ {
		stepInto(pA, x, d, a)
		fA := ls.value(pA)
		if math.IsNaN(fA) || math.IsInf(fA, 0) {
			a = 0.5 * (aPrev + a)
			continue
		}
		if fA > fx+wolfeC1*a*dg || (try > 0 && fA >= fPrev) {
			return ls.zoom(x, fx, dg, d, aPrev, a, fPrev, gPrev, gA)
		}
		dgA := ls.slope(pA, gA, d)
		if math.Abs(dgA) <= -wolfeC2*dg {
			return pA, fA, gA, true
		}
		if dgA >= 0 {
			return ls.zoom(x, fx, dg, d, a, aPrev, fA, gA, gPrev)
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
// gradient at aLo and gA is scratch; zoom owns both. Like wolfe it
// evaluates each trial value-only and asks for the gradient only past the
// sufficient-decrease and fLo tests.
func (ls *lineSearch) zoom(x []float64, fx, dg0 float64, d []float64,
	aLo, aHi, fLo float64, gLo, gA []float64) (xn []float64, fn float64, gn []float64, ok bool) {
	pA := ls.trial
	for try := 0; try < 30; try++ {
		a := 0.5 * (aLo + aHi)
		stepInto(pA, x, d, a)
		fA := ls.value(pA)
		if math.IsNaN(fA) || fA > fx+wolfeC1*a*dg0 || fA >= fLo {
			aHi = a
			continue
		}
		dgA := ls.slope(pA, gA, d)
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
		stepInto(pA, x, d, aLo)
		return pA, fLo, gLo, true
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
