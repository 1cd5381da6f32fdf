// Package kernel implements the two covariance functions of the paper: the
// squared-exponential kernel with ARD length scales (eq. 2) for every
// single-fidelity GP, and the structured multi-fidelity kernel of Perdikaris
// et al. (2017) used by the paper's fusion model (eq. 9):
//
//	k_h(z, z') = k1(f, f') · k2(x, x') + k3(x, x'),
//
// where z = (x, f) is the design vector augmented with the low-fidelity
// posterior value.
//
// All hyperparameters live in log-space so that unconstrained optimizers can
// train them, and every kernel provides analytic gradients with respect to its
// log-hyperparameters for fast marginal-likelihood training. Every kernel also
// provides a PairProfile, the form package gp evaluates it in.
package kernel

// Kernel is a positive-definite covariance function with trainable
// log-hyperparameters.
type Kernel interface {
	// Dim returns the expected input dimensionality.
	Dim() int
	// NumHyper returns the number of log-hyperparameters.
	NumHyper() int
	// Hyper appends the current log-hyperparameters to dst and returns it.
	Hyper(dst []float64) []float64
	// SetHyper installs log-hyperparameters from src and returns the number
	// consumed (always NumHyper()).
	SetHyper(src []float64) int
	// Eval returns k(x1, x2).
	Eval(x1, x2 []float64) float64
	// EvalGrad returns k(x1, x2) and writes ∂k/∂logθ_j into grad, which must
	// have length NumHyper().
	EvalGrad(x1, x2 []float64, grad []float64) float64
	// Bounds appends per-hyperparameter [lo, hi] log-space training bounds.
	Bounds(lo, hi []float64) ([]float64, []float64)
	// Clone returns an independent deep copy.
	Clone() Kernel
	// Profile returns a PairProfile snapshot of the current
	// hyperparameters, bit-identical to Eval/EvalGrad (see PairProfile).
	Profile() PairProfile
}

// HyperVector returns the kernel's log-hyperparameters as a fresh slice.
func HyperVector(k Kernel) []float64 {
	return k.Hyper(make([]float64, 0, k.NumHyper()))
}

// BoundsVectors returns fresh lo/hi slices of log-space training bounds.
func BoundsVectors(k Kernel) (lo, hi []float64) {
	lo = make([]float64, 0, k.NumHyper())
	hi = make([]float64, 0, k.NumHyper())
	return k.Bounds(lo, hi)
}
