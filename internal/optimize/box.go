package optimize

import (
	"fmt"
	"math"
)

// Box is an axis-aligned feasible region lo ≤ x ≤ hi.
type Box struct {
	Lo, Hi []float64
}

// NewBox validates and returns a box. It panics on inconsistent bounds since
// those always indicate a programming error in problem definitions.
func NewBox(lo, hi []float64) Box {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("optimize: box bounds length mismatch %d vs %d", len(lo), len(hi)))
	}
	for i := range lo {
		if !(lo[i] < hi[i]) {
			panic(fmt.Sprintf("optimize: box bound %d inverted: [%v, %v]", i, lo[i], hi[i]))
		}
	}
	return Box{Lo: append([]float64(nil), lo...), Hi: append([]float64(nil), hi...)}
}

// Dim returns the box dimensionality.
func (b Box) Dim() int { return len(b.Lo) }

// Contains reports whether x lies inside the box (inclusive).
func (b Box) Contains(x []float64) bool {
	for i := range x {
		if x[i] < b.Lo[i] || x[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Clip returns x clamped to the box as a new slice.
func (b Box) Clip(x []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		v := x[i]
		if v < b.Lo[i] {
			v = b.Lo[i]
		} else if v > b.Hi[i] {
			v = b.Hi[i]
		}
		out[i] = v
	}
	return out
}

// logitEps keeps the logit transform away from the box boundary where its
// Jacobian vanishes and gradients become useless.
const logitEps = 1e-9

// ToUnconstrained maps an interior box point to ℝ^d via the logit transform
// t = log((x−lo)/(hi−x)). Boundary points are nudged inside by logitEps of
// the box width.
func (b Box) ToUnconstrained(x []float64) []float64 {
	t := make([]float64, len(x))
	for i := range x {
		w := b.Hi[i] - b.Lo[i]
		u := (x[i] - b.Lo[i]) / w
		if u < logitEps {
			u = logitEps
		} else if u > 1-logitEps {
			u = 1 - logitEps
		}
		t[i] = math.Log(u / (1 - u))
	}
	return t
}

// FromUnconstrained maps t ∈ ℝ^d back into the open box via the sigmoid.
func (b Box) FromUnconstrained(t []float64) []float64 {
	x := make([]float64, len(t))
	b.fromUnconstrainedInto(x, t)
	return x
}

// fromUnconstrainedInto is FromUnconstrained writing into x.
func (b Box) fromUnconstrainedInto(x, t []float64) {
	for i := range t {
		u := sigmoid(t[i])
		x[i] = b.Lo[i] + u*(b.Hi[i]-b.Lo[i])
	}
}

func sigmoid(t float64) float64 {
	if t >= 0 {
		return 1 / (1 + math.Exp(-t))
	}
	e := math.Exp(t)
	return e / (1 + e)
}

// MinimizeInBox minimizes a gradient-free objective inside the box starting
// from x0 by running L-BFGS in the logit-reparameterized space with numeric
// gradients. It returns the best point in original coordinates. Every call
// of f receives the same buffer, so f must not retain its argument.
func MinimizeInBox(f func([]float64) float64, b Box, x0 []float64, cfg LBFGSConfig) Result {
	x := make([]float64, len(x0))
	inner := NumericalGradient(func(t []float64) float64 {
		b.fromUnconstrainedInto(x, t)
		return f(x)
	}, 1e-6)
	r := LBFGS(inner, b.ToUnconstrained(x0), cfg)
	if r.X != nil {
		r.X = b.FromUnconstrained(r.X)
	} else {
		r.X = append([]float64(nil), x0...)
		r.F = f(x0)
	}
	return r
}
