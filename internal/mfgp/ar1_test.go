package mfgp

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/stats"
)

// linearPair builds data where f_h = 2·f_l + x (exactly the AR1 form).
func linearPair() (Xl [][]float64, yl []float64, Xh [][]float64, yh []float64) {
	fl := func(x float64) float64 { return math.Sin(3 * x) }
	fh := func(x float64) float64 { return 2*fl(x) + x }
	for i := 0; i < 25; i++ {
		x := float64(i) / 24
		Xl = append(Xl, []float64{x})
		yl = append(yl, fl(x))
	}
	for i := 0; i < 8; i++ {
		x := (float64(i) + 0.5) / 8
		Xh = append(Xh, []float64{x})
		yh = append(yh, fh(x))
	}
	return
}

func TestAR1Validation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := FitAR1(nil, nil, nil, nil, AR1Config{}, rng); err == nil {
		t.Fatal("expected error on empty data")
	}
	if _, err := FitAR1([][]float64{{1}}, []float64{1}, [][]float64{{1, 2}}, []float64{1}, AR1Config{}, rng); err == nil {
		t.Fatal("expected error on dim mismatch")
	}
}

func TestAR1RecoversLinearRelation(t *testing.T) {
	Xl, yl, Xh, yh := linearPair()
	rng := rand.New(rand.NewSource(2))
	m, err := FitAR1(Xl, yl, Xh, yh, AR1Config{Restarts: 2, FixedNoise: fixedNoise(1e-6)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Rho()-2) > 0.5 {
		t.Fatalf("fitted rho %v, want ≈ 2", m.Rho())
	}
	// Accurate interpolation of the linear composition.
	for _, xv := range []float64{0.2, 0.5, 0.8} {
		mu, _ := m.Predict([]float64{xv})
		want := 2*math.Sin(3*xv) + xv
		if math.Abs(mu-want) > 0.1 {
			t.Fatalf("AR1 prediction at %v: %v vs %v", xv, mu, want)
		}
	}
	if m.Dim() != 1 || m.Low() == nil {
		t.Fatal("accessors broken")
	}
}

// The paper's core claim (§3.1): on a NONLINEAR cross-fidelity map the
// linear AR1 model underfits where NARGP succeeds. Seeds 1–10 are fixed in
// advance; each draws one random Latin-hypercube training design (50 cheap,
// 14 expensive points of the pedagogical pair) that both models fit, so the
// RMSEs are paired by design. NARGP's median RMSE must be below AR1's, and a
// one-sided Wilcoxon rank-sum test must put NARGP lower at p < 0.01. This
// test is why the AR1 reference model stays in the package.
func TestNARGPBeatsAR1OnNonlinearMap(t *testing.T) {
	const seeds = 10
	rmse := func(predict func([]float64) (float64, float64)) float64 {
		var sq float64
		const n = 101
		for i := 0; i < n; i++ {
			x := float64(i) / (n - 1)
			mu, _ := predict([]float64{x})
			d := mu - pedagogicalHigh(x)
			sq += d * d
		}
		return math.Sqrt(sq / n)
	}
	nargpErr := make([]float64, seeds)
	ar1Err := make([]float64, seeds)
	for k := range nargpErr {
		seed := int64(k + 1)
		design := rand.New(rand.NewSource(seed))
		Xl := stats.LatinHypercube(design, []float64{0}, []float64{1}, 50)
		Xh := stats.LatinHypercube(design, []float64{0}, []float64{1}, 14)
		yl := make([]float64, len(Xl))
		for i, x := range Xl {
			yl[i] = pedagogicalLow(x[0])
		}
		yh := make([]float64, len(Xh))
		for i, x := range Xh {
			yh[i] = pedagogicalHigh(x[0])
		}
		nargp, err := Fit(Xl, yl, Xh, yh, MultiLevelConfig{
			Restarts: 3, FixedNoise: fixedNoise(1e-6), Propagation: MonteCarlo, NumSamples: 40,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		ar1, err := FitAR1(Xl, yl, Xh, yh, AR1Config{Restarts: 3, FixedNoise: fixedNoise(1e-6)}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		nargpErr[k], ar1Err[k] = rmse(nargp.Predict), rmse(ar1.Predict)
		t.Logf("seed %2d: RMSE NARGP %.4f vs AR1 %.4f", seed, nargpErr[k], ar1Err[k])
	}
	median := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return stats.Quantile(s, 0.5)
	}
	mN, mA := median(nargpErr), median(ar1Err)
	// RankSum is two-sided; halve its p-value when NARGP is the lower arm
	// (U below its null mean seeds·seeds/2).
	u, p := stats.RankSum(nargpErr, ar1Err)
	if u < seeds*seeds/2 {
		p /= 2
	} else {
		p = 1 - p/2
	}
	t.Logf("median RMSE NARGP %.4f vs AR1 %.4f, one-sided rank-sum p = %.2g", mN, mA, p)
	if mN >= mA {
		t.Fatalf("median NARGP RMSE %.4f is not below AR1's %.4f on the quadratic map", mN, mA)
	}
	if p >= 0.01 {
		t.Fatalf("one-sided rank-sum p = %.3g; want NARGP below AR1 at p < 0.01", p)
	}
}

func TestAR1VarianceComposition(t *testing.T) {
	Xl, yl, Xh, yh := linearPair()
	rng := rand.New(rand.NewSource(4))
	m, err := FitAR1(Xl, yl, Xh, yh, AR1Config{Restarts: 2, FixedNoise: fixedNoise(1e-6)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Exact Gaussian composition: σ²_h = ρ²σ²_l + σ²_δ ≥ ρ²σ²_l.
	for _, xv := range []float64{0.1, 0.5, 0.9, 2.0} {
		_, vaL := m.PredictLow([]float64{xv})
		_, vaH := m.Predict([]float64{xv})
		if vaH < m.Rho()*m.Rho()*vaL-1e-12 {
			t.Fatalf("variance composition violated at %v: %v < ρ²·%v", xv, vaH, vaL)
		}
	}
}

func TestMultiLevelValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := FitMultiLevel(nil, nil, MultiLevelConfig{}, rng); err == nil {
		t.Fatal("expected error on no levels")
	}
	X := [][][]float64{{{0}}, {}}
	y := [][]float64{{1}, {}}
	if _, err := FitMultiLevel(X, y, MultiLevelConfig{}, rng); err == nil {
		t.Fatal("expected error on empty level")
	}
}

func TestMultiLevelTwoLevelsMatchesPairModel(t *testing.T) {
	// Sanity: the 2-level recursive model should reach similar accuracy to
	// the dedicated two-fidelity model on the pedagogical pair.
	Xl, yl, Xh, yh := pedagogicalData()
	rng := rand.New(rand.NewSource(6))
	m, err := FitMultiLevel([][][]float64{Xl, Xh}, [][]float64{yl, yh}, MultiLevelConfig{
		Restarts: 3, FixedNoise: fixedNoise(1e-6), NumSamples: 40,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.models) != 2 || m.Dim() != 1 {
		t.Fatal("multi-level metadata wrong")
	}
	var sq float64
	const n = 101
	for i := 0; i < n; i++ {
		x := float64(i) / (n - 1)
		mu, _ := m.Predict([]float64{x})
		d := mu - pedagogicalHigh(x)
		sq += d * d
	}
	rmse := math.Sqrt(sq / n)
	if rmse > 0.1 {
		t.Fatalf("2-level recursive RMSE %v too large", rmse)
	}
}

func TestMultiLevelThreeLevels(t *testing.T) {
	// Three-level chain: f0 = sin(4πx), f1 = f0², f2 = (x−√2)·f1.
	f0 := func(x float64) float64 { return math.Sin(4 * math.Pi * x) }
	f1 := func(x float64) float64 { v := f0(x); return v * v }
	f2 := func(x float64) float64 { return (x - math.Sqrt2) * f1(x) }
	grid := func(n int) (X [][]float64) {
		for i := 0; i < n; i++ {
			X = append(X, []float64{float64(i) / float64(n-1)})
		}
		return
	}
	apply := func(X [][]float64, f func(float64) float64) (y []float64) {
		for _, x := range X {
			y = append(y, f(x[0]))
		}
		return
	}
	X0, X1, X2 := grid(60), grid(25), grid(12)
	rng := rand.New(rand.NewSource(7))
	m, err := FitMultiLevel(
		[][][]float64{X0, X1, X2},
		[][]float64{apply(X0, f0), apply(X1, f1), apply(X2, f2)},
		MultiLevelConfig{Restarts: 2, FixedNoise: fixedNoise(1e-6), NumSamples: 30}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.models) != 3 {
		t.Fatalf("levels = %d", len(m.models))
	}
	var sq float64
	const n = 101
	for i := 0; i < n; i++ {
		x := float64(i) / (n - 1)
		mu, va := m.Predict([]float64{x})
		if va < 0 || math.IsNaN(mu) {
			t.Fatalf("bad posterior at %v: %v ± %v", x, mu, va)
		}
		d := mu - f2(x)
		sq += d * d
	}
	rmse := math.Sqrt(sq / n)
	t.Logf("3-level RMSE %.4f", rmse)
	if rmse > 0.05 {
		t.Fatalf("3-level recursive RMSE %v too large", rmse)
	}
	// Intermediate level predictions are also exposed.
	mu1, _ := m.PredictLevel([]float64{0.3}, 1)
	if math.Abs(mu1-f1(0.3)) > 0.2 {
		t.Fatalf("level-1 prediction %v vs %v", mu1, f1(0.3))
	}
}

func TestMultiLevelPredictLevelBounds(t *testing.T) {
	Xl, yl, Xh, yh := pedagogicalData()
	rng := rand.New(rand.NewSource(8))
	m, err := FitMultiLevel([][][]float64{Xl, Xh}, [][]float64{yl, yh},
		MultiLevelConfig{Restarts: 1, FixedNoise: fixedNoise(1e-6)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range level")
		}
	}()
	m.PredictLevel([]float64{0.5}, 5)
}
