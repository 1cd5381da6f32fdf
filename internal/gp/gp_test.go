package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
)

func fixedNoise(v float64) *float64 { return &v }

func TestFitValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Fit(nil, nil, Config{Kernel: kernel.NewSEARD(1)}, rng); err == nil {
		t.Fatal("expected error on empty data")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, Config{Kernel: kernel.NewSEARD(1)}, rng); err == nil {
		t.Fatal("expected error on length mismatch")
	}
	if _, err := Fit([][]float64{{1, 2}}, []float64{1}, Config{Kernel: kernel.NewSEARD(1)}, rng); err == nil {
		t.Fatal("expected error on dim mismatch")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, Config{}, rng); err == nil {
		t.Fatal("expected error on missing kernel")
	}
}

// A GP with tiny noise must interpolate its training data.
func TestInterpolation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X := [][]float64{{0}, {0.3}, {0.5}, {0.8}, {1}}
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = math.Sin(3 * x[0])
	}
	m, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(1), FixedNoise: fixedNoise(1e-6)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		mu, va := m.PredictLatent(x)
		if math.Abs(mu-y[i]) > 1e-3 {
			t.Fatalf("not interpolating at %v: %v vs %v", x, mu, y[i])
		}
		if va > 1e-4 {
			t.Fatalf("variance at training point too large: %v", va)
		}
	}
}

func TestPredictionAccuracyBetweenPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 25
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i) / float64(n-1)
		X[i] = []float64{x}
		y[i] = math.Sin(2*math.Pi*x) + 0.5*x
	}
	m, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(1), FixedNoise: fixedNoise(1e-5), Restarts: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.13, 0.42, 0.77} {
		mu, _ := m.PredictLatent([]float64{x})
		want := math.Sin(2*math.Pi*x) + 0.5*x
		if math.Abs(mu-want) > 0.02 {
			t.Fatalf("prediction at %v: %v vs %v", x, mu, want)
		}
	}
}

func TestUncertaintyGrowsAwayFromData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X := [][]float64{{0.4}, {0.45}, {0.5}, {0.55}, {0.6}}
	y := []float64{1, 1.2, 1.1, 0.9, 1.0}
	m, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(1)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, vNear := m.PredictLatent([]float64{0.5})
	_, vFar := m.PredictLatent([]float64{3})
	if vFar <= vNear {
		t.Fatalf("variance should grow away from data: near=%v far=%v", vNear, vFar)
	}
}

func TestPredictIncludesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X := [][]float64{{0}, {1}, {2}}
	y := []float64{0, 1, 2}
	m, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(1), FixedNoise: fixedNoise(0.1)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, vLatent := m.PredictLatent([]float64{0.5})
	_, vNoisy := m.Predict([]float64{0.5})
	if vNoisy <= vLatent {
		t.Fatal("Predict should add observation noise to the latent variance")
	}
}

func TestNoiseRecovery(t *testing.T) {
	// With many replicated noisy observations, trained noise should land in
	// the right ballpark.
	rng := rand.New(rand.NewSource(6))
	trueNoise := 0.2
	var X [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		x := rng.Float64()
		X = append(X, []float64{x})
		y = append(y, math.Sin(2*x)+trueNoise*rng.NormFloat64())
	}
	m, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(1), Restarts: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Predict adds the trained observation-noise variance to the latent one.
	_, vLatent := m.PredictLatent([]float64{0.5})
	_, vNoisy := m.Predict([]float64{0.5})
	if noise := math.Sqrt(vNoisy - vLatent); noise < trueNoise/3 || noise > trueNoise*3 {
		t.Fatalf("trained noise %v far from true %v", noise, trueNoise)
	}
}

func TestNLMLGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 8
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		y[i] = rng.NormFloat64()
	}
	m := &Model{}
	m.standardize(X, y)
	w := newFitWorkspace(kernel.NewSEARD(2), newPairGeo(m.xs), m.ys)
	w.logNoise = math.Log(0.1)
	// nlml returns the value and a copy of the gradient at the workspace's
	// current point; the workspace reuses its gradient buffer per call.
	nlml := func() (float64, []float64) {
		v, g, err := w.nlmlGrad()
		if err != nil {
			t.Fatal(err)
		}
		return v, append([]float64(nil), g...)
	}

	theta := []float64{0.3, -0.2, 0.4}
	w.kern.SetHyper(theta)
	_, g := nlml()
	const h = 1e-6
	// Kernel hypers.
	for j := range theta {
		save := theta[j]
		theta[j] = save + h
		w.kern.SetHyper(theta)
		up, _ := nlml()
		theta[j] = save - h
		w.kern.SetHyper(theta)
		dn, _ := nlml()
		theta[j] = save
		w.kern.SetHyper(theta)
		fd := (up - dn) / (2 * h)
		if math.Abs(fd-g[j]) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("hyper %d: analytic %v vs fd %v", j, g[j], fd)
		}
	}
	// Noise hyper.
	saveN := w.logNoise
	w.logNoise = saveN + h
	up, _ := nlml()
	w.logNoise = saveN - h
	dn, _ := nlml()
	w.logNoise = saveN
	fd := (up - dn) / (2 * h)
	if math.Abs(fd-g[len(g)-1]) > 1e-4*(1+math.Abs(fd)) {
		t.Fatalf("noise grad: analytic %v vs fd %v", g[len(g)-1], fd)
	}
}

func TestTrainingImprovesNLML(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 20
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := 3 * rng.Float64()
		X[i] = []float64{x}
		y[i] = math.Exp(-x) * math.Sin(5*x)
	}
	// Model with default hypers (untrained baseline): restarts=0 is not
	// allowed to skip training, so compare against a single-iteration fit.
	quick1, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(1), MaxIter: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(1), Restarts: 3, MaxIter: 200}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if full.NLML() > quick1.NLML()+1e-9 {
		t.Fatalf("more training should not worsen NLML: %v vs %v", full.NLML(), quick1.NLML())
	}
}

func TestStandardizationInvariance(t *testing.T) {
	// Shifting and scaling the outputs must shift/scale predictions
	// accordingly (the model standardizes internally).
	rng1 := rand.New(rand.NewSource(9))
	rng2 := rand.New(rand.NewSource(9))
	X := [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}}
	y1 := []float64{0, 0.5, 0.8, 0.4, 0.1}
	y2 := make([]float64, len(y1))
	const scale, shift = 1000.0, -500.0
	for i, v := range y1 {
		y2[i] = scale*v + shift
	}
	m1, err := Fit(X, y1, Config{Kernel: kernel.NewSEARD(1), FixedNoise: fixedNoise(1e-6)}, rng1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(X, y2, Config{Kernel: kernel.NewSEARD(1), FixedNoise: fixedNoise(1e-6)}, rng2)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.1, 0.6, 0.9} {
		mu1, v1 := m1.PredictLatent([]float64{x})
		mu2, v2 := m2.PredictLatent([]float64{x})
		if math.Abs(mu2-(scale*mu1+shift)) > 1e-2*scale {
			t.Fatalf("mean not equivariant at %v: %v vs %v", x, mu2, scale*mu1+shift)
		}
		if math.Abs(v2-scale*scale*v1) > 1e-2*scale*scale*(1e-9+v1)+1e-6 {
			t.Fatalf("variance not equivariant at %v: %v vs %v", x, v2, scale*scale*v1)
		}
	}
}

func TestConstantOutputsDoNotCrash(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	X := [][]float64{{0}, {1}, {2}}
	y := []float64{5, 5, 5}
	m, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(1)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mu, va := m.PredictLatent([]float64{0.5})
	if math.IsNaN(mu) || math.IsNaN(va) {
		t.Fatalf("NaN prediction for constant outputs: %v %v", mu, va)
	}
	if math.Abs(mu-5) > 1 {
		t.Fatalf("prediction %v far from constant 5", mu)
	}
}

func TestSinglePointTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, err := Fit([][]float64{{0.3, 0.7}}, []float64{2}, Config{Kernel: kernel.NewSEARD(2)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := m.PredictLatent([]float64{0.3, 0.7})
	if math.Abs(mu-2) > 0.5 {
		t.Fatalf("single-point prediction %v, want ≈2", mu)
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 15
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 4, rng.Float64() * 4}
		y[i] = X[i][0] * math.Sin(X[i][1])
	}
	m, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(2)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		x := []float64{math.Mod(math.Abs(a), 8) - 2, math.Mod(math.Abs(b), 8) - 2}
		mu, va := m.PredictLatent(x)
		return va >= 0 && !math.IsNaN(mu) && !math.IsNaN(va)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHyperPackedLength(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	k := kernel.NewSEARD(3)
	m, err := Fit([][]float64{{0, 0, 0}, {1, 1, 1}}, []float64{0, 1}, Config{Kernel: k}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(m.Hyper()), k.NumHyper()+1; got != want {
		t.Fatalf("Hyper length %d, want %d", got, want)
	}
	if m.TrainingSize() != 2 {
		t.Fatalf("TrainingSize = %d", m.TrainingSize())
	}
}

func TestNARGPKernelTrains(t *testing.T) {
	// Smoke test: the structured multi-fidelity kernel must train without
	// numerical failure on augmented inputs.
	rng := rand.New(rand.NewSource(15))
	n := 12
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := rng.Float64()
		fl := math.Sin(8 * math.Pi * x)
		X[i] = []float64{x, fl}
		y[i] = (x - math.Sqrt2) * fl * fl
	}
	m, err := Fit(X, y, Config{Kernel: kernel.NewNARGP(1), Restarts: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mu, va := m.PredictLatent([]float64{0.5, math.Sin(4 * math.Pi)})
	if math.IsNaN(mu) || math.IsNaN(va) {
		t.Fatal("NaN prediction from NARGP kernel")
	}
}
