package kernel

import "math"

// PairProfile is a hyperparameter-resolved snapshot of a kernel that
// evaluates on a cached coordinate-difference vector diff = x1 − x2 instead
// of the raw points. Profiles hoist every hyperparameter transcendental (the
// exp of each log length scale) out of the per-pair loop: the GP training
// loop computes them once per objective evaluation instead of once per matrix
// entry. Every kernel has one, and package gp trains, factorizes, appends and
// predicts through it alone.
//
// # Factors
//
// The only transcendental left per pair is the exp of each SE factor, and
// the gradient needs no new one: every ∂k/∂logθ is a product of the factor
// values with polynomials in diff. A profile therefore splits its gradient
// in two steps. EvalFactors returns the value and records the NumFactors exp
// results it took; GradFactors rebuilds the gradient from those recorded
// factors with multiplications only. A GP fit calls EvalFactors once per pair
// while filling the covariance and GradFactors on the same pair when the
// line search asks for a gradient, so the gradient pass takes no exp at all.
//
// # Bit-identity contract
//
// For every kernel, with diff[i] == x1[i]−x2[i]:
//   - Eval(diff) and EvalFactors(diff, f) are bit-identical to Eval(x1, x2);
//   - GradFactors(diff, f, grad), given the f that EvalFactors(diff, f)
//     wrote, returns that same value and writes into grad exactly what
//     EvalGrad(x1, x2, grad) writes.
//
// The per-dimension arithmetic runs in the same order with the same
// roundings; only the loop-invariant factors are precomputed and the exp
// results are reused. Tests enforce this, which keeps the direct Eval/EvalGrad
// methods a valid reference for the profile a GP fit and prediction actually
// run.
//
// A profile captures the kernel's hyperparameters at Profile() time — it
// does NOT track later SetHyper calls. Profiles carry internal scratch and
// are not safe for concurrent use; build one per goroutine.
type PairProfile interface {
	// NumHyper returns the number of log-hyperparameters (gradient length).
	NumHyper() int
	// Eval returns k for the pair with coordinate differences diff.
	Eval(diff []float64) float64
	// NumFactors returns how many exp factors EvalFactors records per pair.
	NumFactors() int
	// EvalFactors returns Eval(diff) and writes the pair's exp factors into
	// f (length NumFactors).
	EvalFactors(diff, f []float64) float64
	// GradFactors returns k and writes ∂k/∂logθ_j into grad (length
	// NumHyper), reading the factors EvalFactors wrote for the same diff
	// from f. It takes no exp.
	GradFactors(diff, f, grad []float64) float64
}

// --- SEARD ---

type seProfile struct {
	logAmp float64
	s      []float64 // exp(−log l_i)
}

// Profile implements Kernel.
func (k *SEARD) Profile() PairProfile {
	p := &seProfile{s: make([]float64, k.dim)}
	p.load(k)
	return p
}

// load sets p to k's current hyperparameters.
func (p *seProfile) load(k *SEARD) {
	p.logAmp = k.logAmp
	for i, ls := range k.logScale {
		p.s[i] = math.Exp(-ls)
	}
}

// RefreshProfile returns a profile of k's current hyperparameters, the same
// as k.Profile(). When p is a profile of k's kind and shape, it is set in
// place and returned instead of a new one, so a caller that walks one kernel
// through many hyperparameter settings (a training loop) keeps one profile.
// Kernels of other types always get k.Profile().
func RefreshProfile(k Kernel, p PairProfile) PairProfile {
	switch k := k.(type) {
	case *SEARD:
		if sp, ok := p.(*seProfile); ok && len(sp.s) == k.dim {
			sp.load(k)
			return sp
		}
	case *NARGP:
		if np, ok := p.(*nargpProfile); ok && np.d == k.d {
			np.k1.load(k.k1)
			np.k2.load(k.k2)
			np.k3.load(k.k3)
			return np
		}
	}
	return k.Profile()
}

func (p *seProfile) NumHyper() int { return 1 + len(p.s) }

func (p *seProfile) Eval(diff []float64) float64 {
	q := 0.0
	for i, s := range p.s {
		d := diff[i] * s
		q += d * d
	}
	return math.Exp(2*p.logAmp - 0.5*q)
}

func (p *seProfile) NumFactors() int { return 1 }

// EvalFactors records the kernel value itself: it is the one exp.
func (p *seProfile) EvalFactors(diff, f []float64) float64 {
	v := p.Eval(diff)
	f[0] = v
	return v
}

func (p *seProfile) GradFactors(diff, f, grad []float64) float64 {
	v := f[0]
	grad[0] = 2 * v // ∂k/∂log σ_f
	for i, s := range p.s {
		d := diff[i] * s
		grad[1+i] = v * (d * d) // ∂k/∂log l_i = k·Δ_i²/l_i²
	}
	return v
}
