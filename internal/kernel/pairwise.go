package kernel

import (
	"math"

	"repro/internal/linalg"
)

// PairProfile is a hyperparameter-resolved snapshot of a kernel that
// evaluates on cached coordinate differences diff = x1 − x2 instead of the
// raw points. Profiles hoist every hyperparameter transcendental (the exp of
// each log length scale) out of the per-pair loop: the GP training loop
// computes them once per objective evaluation instead of once per matrix
// entry. Every kernel has one, and package gp trains, factorizes, appends and
// predicts through it alone.
//
// # Factors
//
// The only transcendental left per pair is the exp of each SE factor, and a
// profile evaluates in three steps around it:
//
//   - FactorArgs writes the NumFactors exp arguments of one pair, PairArgs
//     those of a batch of pairs;
//   - the caller takes their exps, one linalg.ExpInto over as many pairs as
//     it has at hand (a covariance triangle, a kernel row);
//   - FromFactors combines one pair's factors into the kernel value.
//
// EvalSplit is these three steps for one pair, leaving the pair's factors in
// its buffer, and Eval is EvalSplit on the profile's own scratch, so there is
// one formula per kernel whichever way it is called. The gradient needs no
// new exp: every ∂k/∂logθ is a product of the factor values with
// polynomials in diff, so PairGrads rebuilds a batch of pairs' gradients from
// their recorded factors with multiplications only. A GP fit records every
// pair's factors while filling the covariance and calls PairGrads on the same
// pairs when the line search asks for a gradient, so the gradient pass takes
// no exp at all.
//
// # Batches
//
// PairArgs and PairGrads read P pairs' differences dimension-major: column t
// is diffs[t*P : (t+1)*P], coordinate t of every pair in pair order. They
// write pair q's k-th entry at a[q*stride+k] (factors) or g[q*gs+k]
// (gradients), so a composite kernel hands each part the same columns (or a
// sub-range of them) and an offset into the same buffers. PairArgs adds one
// column at a time across all pairs: every pair keeps its own i-order sum
// and the same roundings as the one-pair formula, and the pairs are
// independent lanes. A gradient entry is a product chain with no sum to
// carry, so PairGrads may take the pairs one after another.
//
// # Bit-identity contract
//
// For every kernel, with diff[i] == x1[i]−x2[i]:
//   - Eval(diff) and EvalSplit(p, diff, f) are bit-identical to Eval(x1, x2);
//   - FromFactors(f), where f holds math.Exp of each argument FactorArgs(diff,
//     ·) wrote, is that same value, and f is what EvalSplit(p, diff, f) leaves;
//   - PairArgs writes for each pair of a batch exactly what FactorArgs writes
//     for it alone;
//   - PairGrads, given each pair's f, writes for each pair exactly what
//     EvalGrad(x1, x2, grad) writes.
//
// The per-dimension arithmetic runs in the same order with the same
// roundings; only the loop-invariant factors are precomputed and the exp
// results are reused. Every product that feeds a sum is rounded explicitly
// (float64 conversions), so no platform fuses one path into an FMA and not
// the other. linalg.ExpInto equals math.Exp bit for bit, so a batch of
// arguments exponentiated together gives the factors a per-pair call would.
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
	// NumFactors returns how many exp factors a pair has.
	NumFactors() int
	// FactorArgs writes the exp arguments of the pair's factors into a
	// (length NumFactors).
	FactorArgs(diff, a []float64)
	// FromFactors returns k from the pair's factors f (length NumFactors),
	// the exps of the arguments FactorArgs wrote.
	FromFactors(f []float64) float64
	// PairArgs writes the exp arguments of P pairs, whose differences
	// diffs holds dimension-major, into a: pair q's at a[q*stride:], as
	// FactorArgs would for that pair alone.
	PairArgs(diffs []float64, P int, a []float64, stride int)
	// PairGrads writes ∂k/∂logθ of P pairs into g, pair q's NumHyper
	// entries at g[q*gs:], reading the pairs' differences dimension-major
	// from diffs and pair q's factors, the exps of what FactorArgs wrote
	// for it, from f[q*fs:]. It takes no exp.
	PairGrads(diffs []float64, P int, f []float64, fs int, g []float64, gs int)
}

// EvalSplit is p's value on one pair by its three steps: FactorArgs into f,
// their exps in place, FromFactors. It leaves the pair's factors in f
// (length p.NumFactors()).
func EvalSplit(p PairProfile, diff, f []float64) float64 {
	p.FactorArgs(diff, f)
	linalg.ExpInto(f, f)
	return p.FromFactors(f)
}

// --- SEARD ---

type seProfile struct {
	logAmp float64
	s      []float64 // exp(−log l_i)
	f      [1]float64
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

func (p *seProfile) Eval(diff []float64) float64 { return EvalSplit(p, diff, p.f[:]) }

func (p *seProfile) NumFactors() int { return 1 }

// arg returns the exp argument of the pair: 2·log σ_f − ½·Σ_i (diff_i/l_i)²,
// summed in i-order.
func (p *seProfile) arg(diff []float64) float64 {
	q := 0.0
	for i, s := range p.s {
		d := diff[i] * s
		q += float64(d * d)
	}
	return 2*p.logAmp - float64(0.5*q)
}

func (p *seProfile) FactorArgs(diff, a []float64) { a[0] = p.arg(diff) }

// FromFactors returns the one factor: it is the kernel value itself.
func (p *seProfile) FromFactors(f []float64) float64 { return f[0] }

// PairArgs is arg on every pair at once: each pair's q accumulates in its
// own slot of a, one column (coordinate) after another, so every pair sums
// in i-order from 0 with arg's roundings.
func (p *seProfile) PairArgs(diffs []float64, P int, a []float64, stride int) {
	for q := 0; q < P; q++ {
		a[q*stride] = 0
	}
	for i, s := range p.s {
		for q, dv := range diffs[i*P : (i+1)*P] {
			d := dv * s
			a[q*stride] += float64(d * d)
		}
	}
	for q := 0; q < P; q++ {
		a[q*stride] = 2*p.logAmp - float64(0.5*a[q*stride])
	}
}

// PairGrads writes ∂k/∂log σ_f = 2k and ∂k/∂log l_i = k·Δ_i²/l_i² for every
// pair, k being the pair's one factor.
func (p *seProfile) PairGrads(diffs []float64, P int, f []float64, fs int, g []float64, gs int) {
	nh := p.NumHyper()
	for q := 0; q < P; q++ {
		p.gradAt(diffs, P, q, f[q*fs], g[q*gs:q*gs+nh])
	}
}

// gradAt writes the gradient of pair q of a batch of P, whose factor is v,
// into grad.
func (p *seProfile) gradAt(diffs []float64, P, q int, v float64, grad []float64) {
	grad[0] = 2 * v
	for i, s := range p.s {
		d := diffs[i*P+q] * s
		grad[1+i] = v * (d * d)
	}
}
