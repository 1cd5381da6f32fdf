// Package mfgp implements the paper's nonlinear fusion model (§3.1–§3.2),
// following Perdikaris et al. (2017):
//
//   - a low-fidelity GP f_l(x) trained on the cheap data,
//   - a high-fidelity GP f_h over the augmented input (x, f_l(x)) with the
//     structured kernel k1·k2 + k3 (eq. 9),
//   - posterior prediction by propagating the low-fidelity posterior through
//     the high-fidelity GP (eq. 10), via Monte-Carlo with common random
//     numbers or deterministic Gauss–Hermite quadrature.
//
// The two-fidelity model is the L = 2 case of MultiLevel, the recursive
// chain that also backs fidelity ladders with more rungs.
package mfgp

import "math/rand"

// Propagation selects how the non-Gaussian high-fidelity posterior of
// eq. (10) is approximated.
type Propagation int

const (
	// MonteCarlo samples the low-fidelity posterior and averages the
	// high-fidelity predictions (the paper's method). Samples use common
	// random numbers so that the resulting acquisition surface is smooth
	// and deterministic for a given model.
	MonteCarlo Propagation = iota
	// GaussHermite replaces the random samples with Gauss–Hermite
	// quadrature nodes — a deterministic variant ablated in EXPERIMENTS.md.
	GaussHermite
)

// Fit trains the two-fidelity fusion model on a low-fidelity dataset
// (Xl, yl) and a high-fidelity dataset (Xh, yh): a two-level chain whose
// Level(0) is f_l and Level(1) is f_h over (x, f_l(x)). The two designs need
// not share points; the low-fidelity posterior mean supplies the augmented
// coordinate at Xh (eq. 10's integration handles the mismatch at prediction
// time).
func Fit(Xl [][]float64, yl []float64, Xh [][]float64, yh []float64, cfg MultiLevelConfig, rng *rand.Rand) (*MultiLevel, error) {
	return FitMultiLevel([][][]float64{Xl, Xh}, [][]float64{yl, yh}, cfg, rng)
}
