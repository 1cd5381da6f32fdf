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
// # Bit-identity contract
//
// For every kernel, Profile().Eval(diff) and Profile().EvalGrad(diff, grad)
// are bit-identical to Eval(x1, x2) and EvalGrad(x1, x2, grad) when
// diff[i] == x1[i]−x2[i]: the per-dimension arithmetic runs in the same order
// with the same roundings, only the loop-invariant factors are precomputed.
// Tests enforce this, which keeps the direct Eval/EvalGrad methods a valid
// reference for the profile a GP fit and prediction actually run.
//
// A profile captures the kernel's hyperparameters at Profile() time — it
// does NOT track later SetHyper calls. Profiles carry internal scratch and
// are not safe for concurrent use; build one per goroutine.
type PairProfile interface {
	// NumHyper returns the number of log-hyperparameters (gradient length).
	NumHyper() int
	// Eval returns k for the pair with coordinate differences diff.
	Eval(diff []float64) float64
	// EvalGrad returns k and writes ∂k/∂logθ_j into grad (length NumHyper).
	EvalGrad(diff, grad []float64) float64
}

// --- SEARD ---

type seProfile struct {
	logAmp float64
	s      []float64 // exp(−log l_i)
	scaled []float64 // scratch: (Δ_i/l_i)²
}

// Profile implements Kernel.
func (k *SEARD) Profile() PairProfile {
	p := &seProfile{s: make([]float64, k.dim), scaled: make([]float64, k.dim)}
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

func (p *seProfile) EvalGrad(diff, grad []float64) float64 {
	q := 0.0
	for i, s := range p.s {
		d := diff[i] * s
		p.scaled[i] = d * d
		q += p.scaled[i]
	}
	v := math.Exp(2*p.logAmp - 0.5*q)
	grad[0] = 2 * v
	for i, sc := range p.scaled {
		grad[1+i] = v * sc
	}
	return v
}
