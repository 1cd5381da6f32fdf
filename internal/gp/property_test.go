package gp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
)

// Conditioning on an additional observation must reduce (or keep) the
// posterior variance at that location.
func TestMoreDataReducesVarianceThere(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := [][]float64{{0}, {0.4}, {1}}
	yBase := []float64{0, 0.5, 1}
	newX := []float64{0.7}
	fit := func(X [][]float64, y []float64) *Model {
		m, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(1), FixedNoise: fixedNoise(1e-4), Restarts: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := fit(base, yBase)
	_, v1 := m1.PredictLatent(newX)
	m2 := fit(append(append([][]float64{}, base...), newX), append(append([]float64{}, yBase...), 0.8))
	_, v2 := m2.PredictLatent(newX)
	if v2 > v1 {
		t.Fatalf("variance at observed point grew: %v -> %v", v1, v2)
	}
}

// The posterior mean at a far-away point must revert toward the prior mean
// (the data mean, by standardization).
func TestMeanReversionFarFromData(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	X := [][]float64{{0}, {0.5}, {1}}
	y := []float64{10, 12, 14}
	m, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(1), FixedNoise: fixedNoise(1e-4), Restarts: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := m.PredictLatent([]float64{1000})
	dataMean := 12.0
	if math.Abs(mu-dataMean) > 1.0 {
		t.Fatalf("far-field prediction %v should revert to data mean %v", mu, dataMean)
	}
}

// Predictions must be continuous: nearby inputs give nearby posteriors.
func TestPredictionContinuity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	X := [][]float64{{0}, {0.3}, {0.6}, {1}}
	y := []float64{0, 1, -1, 0.5}
	m, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(1), FixedNoise: fixedNoise(1e-4)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-7
	for _, x := range []float64{0.15, 0.45, 0.8} {
		mu1, v1 := m.PredictLatent([]float64{x})
		mu2, v2 := m.PredictLatent([]float64{x + h})
		if math.Abs(mu1-mu2) > 1e-4 || math.Abs(v1-v2) > 1e-4 {
			t.Fatalf("posterior discontinuous near %v", x)
		}
	}
}

// Duplicated training points with consistent values must not break the fit
// (the jitter path in Cholesky handles the rank deficiency).
func TestDuplicateTrainingPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	X := [][]float64{{0.5}, {0.5}, {0.5}, {1}}
	y := []float64{2, 2, 2, 3}
	m, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(1), FixedNoise: fixedNoise(1e-4)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := m.PredictLatent([]float64{0.5})
	if math.Abs(mu-2) > 0.1 {
		t.Fatalf("duplicated-point prediction %v, want ≈2", mu)
	}
}

// The kernel choice must not change the exact-interpolation property; the
// sum and product composites route through their combined pair profiles.
func TestInterpolationAcrossKernels(t *testing.T) {
	kernels := []func() kernel.Kernel{
		func() kernel.Kernel { return kernel.NewSEARD(1) },
		func() kernel.Kernel { return kerneltest.NewSum(kernel.NewSEARD(1), kernel.NewSEARD(1)) },
		func() kernel.Kernel { return kerneltest.NewProduct(kernel.NewSEARD(1), kernel.NewSEARD(1)) },
	}
	X := [][]float64{{0}, {0.5}, {1}}
	y := []float64{1, -1, 2}
	for _, mk := range kernels {
		rng := rand.New(rand.NewSource(25))
		m, err := Fit(X, y, Config{Kernel: mk(), FixedNoise: fixedNoise(1e-6), Restarts: 2}, rng)
		if err != nil {
			t.Fatalf("%T: %v", mk(), err)
		}
		for i, x := range X {
			mu, _ := m.PredictLatent(x)
			if math.Abs(mu-y[i]) > 0.01 {
				t.Fatalf("%T fails to interpolate at %v: %v vs %v", mk(), x, mu, y[i])
			}
		}
	}
}
