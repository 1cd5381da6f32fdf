package mfgp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gp"
	"repro/internal/kernel"
)

// The pedagogical example of Perdikaris et al. (2017), used in the paper's
// Figures 1 and 2.
func pedagogicalLow(x float64) float64  { return math.Sin(8 * math.Pi * x) }
func pedagogicalHigh(x float64) float64 { l := pedagogicalLow(x); return (x - math.Sqrt2) * l * l }

// pedagogicalData builds the dense-low/sparse-high training design of the
// Perdikaris et al. demo (50 cheap points, 14 expensive points), which the
// paper's Figure 1 replicates.
func pedagogicalData() (Xl [][]float64, yl []float64, Xh [][]float64, yh []float64) {
	for i := 0; i < 50; i++ {
		x := float64(i) / 49
		Xl = append(Xl, []float64{x})
		yl = append(yl, pedagogicalLow(x))
	}
	for i := 0; i < 14; i++ {
		x := float64(i) / 13
		Xh = append(Xh, []float64{x})
		yh = append(yh, pedagogicalHigh(x))
	}
	return
}

func fixedNoise(v float64) *float64 { return &v }

func fitPedagogical(t *testing.T, prop Propagation, seed int64) *MultiLevel {
	t.Helper()
	Xl, yl, Xh, yh := pedagogicalData()
	rng := rand.New(rand.NewSource(seed))
	m, err := Fit(Xl, yl, Xh, yh, MultiLevelConfig{
		Restarts:    3,
		FixedNoise:  fixedNoise(1e-6),
		Propagation: prop,
		NumSamples:  40,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFitValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Fit(nil, nil, nil, nil, MultiLevelConfig{}, rng); err == nil {
		t.Fatal("expected error on empty data")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, [][]float64{{1, 2}}, []float64{1}, MultiLevelConfig{}, rng); err == nil {
		t.Fatal("expected error on dim mismatch")
	}
}

// The headline property the paper's Figure 1 demonstrates: with 21 cheap and
// only 5 expensive points, the fused model recovers the high-fidelity
// function far better than a single-fidelity GP trained on the 5 expensive
// points alone.
func TestFusionBeatsSingleFidelity(t *testing.T) {
	m := fitPedagogical(t, MonteCarlo, 2)
	_, _, Xh, yh := pedagogicalData()
	rng := rand.New(rand.NewSource(3))
	single, err := gp.Fit(Xh, yh, gp.Config{
		Kernel: kernel.NewSEARD(1), Restarts: 3, FixedNoise: fixedNoise(1e-6),
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var mfErr, sfErr float64
	n := 101
	for i := 0; i < n; i++ {
		x := float64(i) / float64(n-1)
		want := pedagogicalHigh(x)
		muMF, _ := m.Predict([]float64{x})
		muSF, _ := single.PredictLatent([]float64{x})
		mfErr += (muMF - want) * (muMF - want)
		sfErr += (muSF - want) * (muSF - want)
	}
	mfErr = math.Sqrt(mfErr / float64(n))
	sfErr = math.Sqrt(sfErr / float64(n))
	t.Logf("RMSE multi-fidelity %.4f vs single-fidelity %.4f", mfErr, sfErr)
	if mfErr >= sfErr {
		t.Fatalf("fusion RMSE %v should beat single-fidelity %v", mfErr, sfErr)
	}
	if mfErr > 0.15 {
		t.Fatalf("fusion RMSE %v too large", mfErr)
	}
}

func TestInterpolatesHighFidelityPoints(t *testing.T) {
	m := fitPedagogical(t, MonteCarlo, 4)
	_, _, Xh, yh := pedagogicalData()
	for i, x := range Xh {
		mu, _ := m.Predict(x)
		if math.Abs(mu-yh[i]) > 0.05 {
			t.Fatalf("fusion not interpolating at %v: %v vs %v", x, mu, yh[i])
		}
	}
}

func TestLowFidelityAccessors(t *testing.T) {
	m := fitPedagogical(t, MonteCarlo, 5)
	if m.Dim() != 1 {
		t.Fatalf("Dim = %d", m.Dim())
	}
	mu, va := m.PredictLevel([]float64{0.3}, 0)
	if math.Abs(mu-pedagogicalLow(0.3)) > 0.05 {
		t.Fatalf("low prediction %v vs %v", mu, pedagogicalLow(0.3))
	}
	if va < 0 {
		t.Fatalf("negative low variance %v", va)
	}
	if len(m.models) != 2 || m.Level(0) == nil || m.Level(1) == nil {
		t.Fatal("accessors returned nil")
	}
}

func TestPredictDeterministic(t *testing.T) {
	// Common random numbers: repeated Predict calls must agree exactly.
	m := fitPedagogical(t, MonteCarlo, 6)
	x := []float64{0.37}
	mu1, v1 := m.Predict(x)
	mu2, v2 := m.Predict(x)
	if mu1 != mu2 || v1 != v2 {
		t.Fatal("MC prediction with common random numbers should be deterministic")
	}
}

// plugInPredict evaluates a two-level model's high-fidelity GP at the
// low-fidelity posterior mean only, ignoring the low-fidelity variance: the
// reference that shows what propagating that variance adds.
func plugInPredict(m *MultiLevel, x []float64) (float64, float64) {
	mu, _ := m.Level(0).PredictLatent(x)
	return m.Level(1).PredictLatent(append(append([]float64(nil), x...), mu))
}

func TestPropagationVariantsAgree(t *testing.T) {
	mMC := fitPedagogical(t, MonteCarlo, 7)
	mGH := fitPedagogical(t, GaussHermite, 7)
	for _, xv := range []float64{0.1, 0.33, 0.62, 0.9} {
		x := []float64{xv}
		muMC, _ := mMC.Predict(x)
		muGH, _ := mGH.Predict(x)
		muPI, _ := plugInPredict(mGH, x)
		// Both propagations and the plug-in mean should agree closely where
		// the low-fidelity GP is confident (dense 21-point training grid).
		if math.Abs(muMC-muGH) > 0.1 {
			t.Fatalf("MC %v vs GH %v at %v", muMC, muGH, xv)
		}
		if math.Abs(muGH-muPI) > 0.1 {
			t.Fatalf("GH %v vs plug-in %v at %v", muGH, muPI, xv)
		}
	}
}

func TestUncertaintyPropagationWidensVariance(t *testing.T) {
	// With sparse low-fidelity data the low-fidelity posterior is uncertain;
	// full propagation must report at least the plug-in variance on average.
	var Xl [][]float64
	var yl []float64
	for _, x := range []float64{0, 0.5, 1} { // sparse low-fidelity set
		Xl = append(Xl, []float64{x})
		yl = append(yl, pedagogicalLow(x))
	}
	var Xh [][]float64
	var yh []float64
	for _, x := range []float64{0.1, 0.9} {
		Xh = append(Xh, []float64{x})
		yh = append(yh, pedagogicalHigh(x))
	}
	full, err := Fit(Xl, yl, Xh, yh, MultiLevelConfig{Propagation: MonteCarlo, NumSamples: 200, FixedNoise: fixedNoise(1e-6)}, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	sumFull, sumPlug := 0.0, 0.0
	for i := 0; i <= 20; i++ {
		x := []float64{float64(i) / 20}
		_, vF := full.Predict(x)
		_, vP := plugInPredict(full, x)
		sumFull += vF
		sumPlug += vP
	}
	if sumFull < sumPlug {
		t.Fatalf("propagated variance (%v) should not be below plug-in (%v) on average", sumFull, sumPlug)
	}
}

func TestVarianceNonNegative(t *testing.T) {
	m := fitPedagogical(t, MonteCarlo, 10)
	for i := 0; i <= 50; i++ {
		x := []float64{float64(i) / 50}
		_, va := m.Predict(x)
		if va < 0 || math.IsNaN(va) {
			t.Fatalf("bad variance %v at %v", va, x)
		}
	}
}

func TestMismatchedDesignsSupported(t *testing.T) {
	// Low and high fidelity points deliberately do not overlap: the low
	// design is a 25-point offset grid that misses every high point.
	var Xl [][]float64
	for i := 0; i < 25; i++ {
		Xl = append(Xl, []float64{(float64(i) + 0.37) / 25})
	}
	yl := make([]float64, len(Xl))
	for i, x := range Xl {
		yl[i] = pedagogicalLow(x[0])
	}
	Xh := [][]float64{{0.2}, {0.6}, {0.8}}
	yh := make([]float64, len(Xh))
	for i, x := range Xh {
		yh[i] = pedagogicalHigh(x[0])
	}
	rng := rand.New(rand.NewSource(11))
	m, err := Fit(Xl, yl, Xh, yh, MultiLevelConfig{FixedNoise: fixedNoise(1e-6)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := m.Predict([]float64{0.6})
	if math.Abs(mu-pedagogicalHigh(0.6)) > 0.1 {
		t.Fatalf("prediction at high point: %v vs %v", mu, pedagogicalHigh(0.6))
	}
}
