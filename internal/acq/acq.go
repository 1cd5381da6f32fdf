// Package acq implements the acquisition functions of §2.4: expected
// improvement (eq. 5), probability of feasibility, the weighted expected
// improvement wEI = EI·ΠPF (eq. 6) used by both the proposed method and the
// WEIBO baseline, the lower confidence bound (used by GASPAD), and the
// first-feasible bootstrap objective of §4.2 (eq. 13).
//
// All functions treat optimization as MINIMIZATION of the objective and
// constraints of the form c_i(x) < 0, matching eq. (1).
package acq

import (
	"math"

	"repro/internal/stats"
)

// Posterior returns the posterior mean and variance of a surrogate at x.
// It is the only coupling between this package and the model packages, so
// single-fidelity GPs, fused multi-fidelity models and test doubles all plug
// in uniformly.
type Posterior func(x []float64) (mean, variance float64)

// EI returns the expected improvement of a Gaussian posterior N(mu, sigma2)
// over the incumbent tau, for minimization (eq. 5):
//
//	EI = σ·(λΦ(λ) + φ(λ)),  λ = (τ − µ)/σ.
//
// When sigma2 is (numerically) zero it degrades gracefully to the
// deterministic improvement max(0, τ−µ).
func EI(mu, sigma2, tau float64) float64 {
	sigma := math.Sqrt(math.Max(sigma2, 0))
	if sigma < 1e-12 {
		return math.Max(0, tau-mu)
	}
	lambda := (tau - mu) / sigma
	// Tail guards: for λ ≪ 0 both terms underflow (and λ·Φ(λ) would evaluate
	// as −Inf·0 = NaN at extreme magnitudes); for λ ≫ 0, EI → τ−µ.
	if lambda < -40 {
		return 0
	}
	if lambda > 40 {
		return tau - mu
	}
	return sigma * (lambda*stats.NormCDF(lambda) + stats.NormPDF(lambda))
}

// PF returns the probability of feasibility Φ(−µ/σ) of a constraint modelled
// as c(x) ~ N(mu, sigma2) with feasibility c(x) < 0. A deterministic
// posterior (σ≈0) returns a hard 0/1 indicator.
func PF(mu, sigma2 float64) float64 {
	sigma := math.Sqrt(math.Max(sigma2, 0))
	if sigma < 1e-12 {
		if mu < 0 {
			return 1
		}
		return 0
	}
	return stats.NormCDF(-mu / sigma)
}

// WEI builds the weighted expected improvement acquisition of eq. (6):
//
//	wEI(x) = EI_obj(x) · Π_i PF_i(x).
//
// tau is the incumbent objective value among FEASIBLE observations. cons may
// be empty, in which case WEI reduces to plain EI.
func WEI(obj Posterior, cons []Posterior, tau float64) func(x []float64) float64 {
	return func(x []float64) float64 {
		mu, v := obj(x)
		a := EI(mu, v, tau)
		for _, c := range cons {
			cm, cv := c(x)
			a *= PF(cm, cv)
		}
		return a
	}
}

// LCB returns the lower confidence bound µ − β·σ (for minimization); GASPAD
// uses it for prescreening evolutionary candidates.
func LCB(mu, sigma2, beta float64) float64 {
	return mu - beta*math.Sqrt(math.Max(sigma2, 0))
}

// FeasibilityObjective builds the §4.2 bootstrap objective (eq. 13)
//
//	minimize Σ_i max(0, µ_i(x)),
//
// the sum of predicted constraint violations, used to drive the search into a
// feasible region before any feasible point is known. The returned function
// is to be MINIMIZED.
func FeasibilityObjective(cons []Posterior) func(x []float64) float64 {
	return func(x []float64) float64 {
		s := 0.0
		for _, c := range cons {
			cm, _ := c(x)
			if cm > 0 {
				s += cm
			}
		}
		return s
	}
}
