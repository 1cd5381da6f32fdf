package mfgp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gp"
	"repro/internal/kernel"
)

// AR1 is the linear autoregressive co-kriging model of Kennedy & O'Hagan
// (2000) — eq. (7) of the paper:
//
//	f_h(x) = ρ·f_l(x) + δ(x),
//
// with a scalar regression coefficient ρ and an independent GP discrepancy
// δ(x). The paper's §3.1 motivates the nonlinear NARGP model by the
// limitations of this linear form; this implementation exists so the
// comparison can be made quantitatively (see TestNARGPBeatsAR1OnNonlinearMap
// and BenchmarkAblationFusionModel).
type AR1 struct {
	low   *gp.Model
	delta *gp.Model
	rho   float64
	dim   int
}

// AR1Config tunes AR1 training.
type AR1Config struct {
	// LowKernel / DeltaKernel default to SE-ARD.
	LowKernel, DeltaKernel kernel.Kernel
	// Restarts / MaxIter forward to gp.Fit.
	Restarts, MaxIter int
	// FixedNoise pins both GPs' observation noise.
	FixedNoise *float64
	// RhoGrid is the set of candidate ρ values scored by the discrepancy
	// GP's marginal likelihood (default: 33 points in [−2, 2]).
	RhoGrid []float64
}

// FitAR1 trains the linear fusion model: first the low-fidelity GP, then a
// grid search over ρ, fitting the discrepancy GP to y_h − ρ·µ_l(X_h) and
// keeping the ρ with the best (lowest) discrepancy NLML.
func FitAR1(Xl [][]float64, yl []float64, Xh [][]float64, yh []float64, cfg AR1Config, rng *rand.Rand) (*AR1, error) {
	if len(Xl) == 0 || len(Xh) == 0 {
		return nil, errors.New("mfgp: AR1 needs data at both fidelities")
	}
	d := len(Xl[0])
	if len(Xh[0]) != d {
		return nil, fmt.Errorf("mfgp: AR1 fidelity input dims differ: %d vs %d", d, len(Xh[0]))
	}
	lowK := cfg.LowKernel
	if lowK == nil {
		lowK = kernel.NewSEARD(d)
	}
	low, err := gp.Fit(Xl, yl, gp.Config{
		Kernel: lowK, Restarts: cfg.Restarts, MaxIter: cfg.MaxIter, FixedNoise: cfg.FixedNoise,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("mfgp: AR1 low-fidelity fit: %w", err)
	}
	grid := cfg.RhoGrid
	if len(grid) == 0 {
		grid = make([]float64, 33)
		for i := range grid {
			grid[i] = -2 + 4*float64(i)/32
		}
	}
	// Low-fidelity posterior means at the high-fidelity sites.
	muL := make([]float64, len(Xh))
	for i, x := range Xh {
		muL[i], _ = low.PredictLatent(x)
	}
	var best *AR1
	bestNLML := math.Inf(1)
	resid := make([]float64, len(yh))
	for _, rho := range grid {
		for i := range yh {
			resid[i] = yh[i] - rho*muL[i]
		}
		dk := cfg.DeltaKernel
		if dk == nil {
			dk = kernel.NewSEARD(d)
		} else {
			dk = dk.Clone()
		}
		delta, err := gp.Fit(Xh, append([]float64(nil), resid...), gp.Config{
			Kernel: dk, Restarts: cfg.Restarts, MaxIter: cfg.MaxIter, FixedNoise: cfg.FixedNoise,
		}, rng)
		if err != nil {
			continue
		}
		if delta.NLML() < bestNLML {
			bestNLML = delta.NLML()
			best = &AR1{low: low, delta: delta, rho: rho, dim: d}
		}
	}
	if best == nil {
		return nil, errors.New("mfgp: AR1 discrepancy fit failed for every rho")
	}
	return best, nil
}

// Rho returns the fitted regression coefficient.
func (m *AR1) Rho() float64 { return m.rho }

// Dim returns the design-space dimensionality.
func (m *AR1) Dim() int { return m.dim }

// Low returns the trained low-fidelity GP.
func (m *AR1) Low() *gp.Model { return m.low }

// Predict returns the fused posterior at x. Because the model is linear in
// the independent GPs, the posterior is exactly Gaussian:
//
//	µ_h = ρ·µ_l + µ_δ,  σ²_h = ρ²·σ²_l + σ²_δ.
func (m *AR1) Predict(x []float64) (mean, variance float64) {
	muL, vaL := m.low.PredictLatent(x)
	muD, vaD := m.delta.PredictLatent(x)
	return m.rho*muL + muD, m.rho*m.rho*vaL + vaD
}

// PredictLow returns the low-fidelity posterior at x.
func (m *AR1) PredictLow(x []float64) (mean, variance float64) {
	return m.low.PredictLatent(x)
}
