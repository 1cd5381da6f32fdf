package gp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/linalg"
)

func incrTrainSet(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		s := 0.0
		for j := range X[i] {
			X[i][j] = rng.Float64() * 4
			s += X[i][j]
		}
		y[i] = math.Sin(s) + 0.1*X[i][0]*X[i][0]
	}
	return X, y
}

// TestAppendObservationMatchesBatchFactor appends points one at a time and
// pins the maintained factor, α and NLML against a from-scratch factorization
// of the same kernel matrix (same frozen hyperparameters/standardization).
func TestAppendObservationMatchesBatchFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := incrTrainSet(rng, 30, 2)
	m, err := Fit(X[:20], y[:20], Config{Kernel: kernel.NewSEARD(2), Restarts: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 30; i++ {
		if err := m.AppendObservation(X[i], y[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if m.TrainingSize() != 30 {
		t.Fatalf("size %d, want 30", m.TrainingSize())
	}
	// Rebuild K over the maintained standardized data with the same hypers.
	n := len(m.xs)
	K := linalg.NewMatrix(n, n)
	noise2 := math.Exp(2 * m.logNoise)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := m.kern.Eval(m.xs[i], m.xs[j])
			K.Set(i, j, v)
			K.Set(j, i, v)
		}
		K.Add(i, i, noise2)
	}
	fresh, err := linalg.NewCholesky(K)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if !almostEqF(m.chol.L.At(i, j), fresh.L.At(i, j), 1e-8) {
				t.Fatalf("factor[%d,%d]: incremental %v vs fresh %v", i, j, m.chol.L.At(i, j), fresh.L.At(i, j))
			}
		}
	}
	alpha := fresh.SolveVec(m.ys)
	for i := range alpha {
		if !almostEqF(m.alpha[i], alpha[i], 1e-7) {
			t.Fatalf("alpha[%d]: %v vs %v", i, m.alpha[i], alpha[i])
		}
	}
	wantNLML := 0.5*linalg.Dot(m.ys, alpha) + 0.5*fresh.LogDet() + 0.5*float64(n)*math.Log(2*math.Pi)
	if !almostEqF(m.nlml, wantNLML, 1e-8) {
		t.Fatalf("nlml %v vs %v", m.nlml, wantNLML)
	}
}

// TestTruncateRestoresExactModelBitwise proves the fantasy cycle is an exact
// no-op on the exact path: append then truncate leaves α, NLML and
// predictions bit-identical.
func TestTruncateRestoresExactModelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := incrTrainSet(rng, 28, 3)
	m, err := Fit(X[:25], y[:25], Config{Kernel: kernel.NewSEARD(3), Restarts: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	probes := make([][]float64, 5)
	for i := range probes {
		probes[i] = []float64{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 4}
	}
	muBefore := make([]float64, len(probes))
	vaBefore := make([]float64, len(probes))
	for i, p := range probes {
		muBefore[i], vaBefore[i] = m.PredictLatent(p)
	}
	nlmlBefore := m.NLML()
	for i := 25; i < 28; i++ {
		if err := m.AppendObservation(X[i], y[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Truncate(25); err != nil {
		t.Fatal(err)
	}
	if m.NLML() != nlmlBefore {
		t.Fatalf("nlml changed across append+truncate: %v vs %v", m.NLML(), nlmlBefore)
	}
	for i, p := range probes {
		mu, va := m.PredictLatent(p)
		if mu != muBefore[i] || va != vaBefore[i] {
			t.Fatalf("prediction %d changed across append+truncate", i)
		}
	}
}

// TestLowRankFitApproximatesExact checks the inducing-point model against the
// exact GP on a smooth function: predictions should track closely and the
// NLML must be finite.
func TestLowRankFitApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 160
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{8 * float64(i) / float64(n-1)}
		y[i] = math.Sin(X[i][0]) + 0.2*X[i][0]
	}
	exact, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(1), FixedNoise: fixedNoise(1e-3), Restarts: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := Fit(X, y, Config{Kernel: kernel.NewSEARD(1), FixedNoise: fixedNoise(1e-3), Restarts: 1, Inducing: 40}, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	if !lr.IsLowRank() {
		t.Fatal("Inducing: 40 fit an exact model")
	}
	if exact.IsLowRank() {
		t.Fatal("exact model reports low-rank")
	}
	if math.IsNaN(lr.NLML()) || math.IsInf(lr.NLML(), 0) {
		t.Fatalf("low-rank NLML not finite: %v", lr.NLML())
	}
	var worst float64
	for q := 0.0; q <= 8; q += 0.25 {
		me, _ := exact.PredictLatent([]float64{q})
		ml, vl := lr.PredictLatent([]float64{q})
		if vl < 0 {
			t.Fatalf("negative low-rank variance at %v", q)
		}
		if d := math.Abs(me - ml); d > worst {
			worst = d
		}
	}
	if worst > 0.05 {
		t.Fatalf("low-rank posterior mean deviates by %v from exact", worst)
	}
}

// TestLowRankAppendMatchesRebuild folds points in incrementally and compares
// the maintained weights/NLML against a from-scratch rebuild of the DTC state
// over the same inducing set.
func TestLowRankAppendMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	X, y := incrTrainSet(rng, 80, 2)
	m, err := Fit(X[:60], y[:60], Config{Kernel: kernel.NewSEARD(2), FixedNoise: fixedNoise(1e-2), Restarts: 1, Inducing: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 60; i < 80; i++ {
		if err := m.AppendObservation(X[i], y[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	lr := m.lowRank
	mi := len(lr.zs)
	// Rebuild Σ and b from scratch over the maintained data.
	kmm := linalg.NewMatrix(mi, mi)
	for i := 0; i < mi; i++ {
		for j := i; j < mi; j++ {
			v := m.kern.Eval(lr.zs[i], lr.zs[j])
			kmm.Set(i, j, v)
			kmm.Set(j, i, v)
		}
		kmm.Add(i, i, 1e-8)
	}
	sigma := kmm.Clone()
	b := make([]float64, mi)
	km := make([]float64, mi)
	inv := 1 / lr.noise2
	for t2 := 0; t2 < len(m.xs); t2++ {
		for i := 0; i < mi; i++ {
			km[i] = m.kern.Eval(lr.zs[i], m.xs[t2])
		}
		for i := 0; i < mi; i++ {
			b[i] += km[i] * m.ys[t2]
			for j := 0; j < mi; j++ {
				sigma.Add(i, j, inv*km[i]*km[j])
			}
		}
	}
	cholS, err := linalg.NewCholesky(sigma)
	if err != nil {
		t.Fatal(err)
	}
	w := cholS.SolveVec(b)
	for i := range w {
		w[i] *= inv
		if !almostEqF(lr.w[i], w[i], 1e-4) {
			t.Fatalf("w[%d]: incremental %v vs rebuilt %v", i, lr.w[i], w[i])
		}
	}
	if !almostEqF(lr.cholSigma.LogDet(), cholS.LogDet(), 1e-6) {
		t.Fatalf("logdet Σ: %v vs %v", lr.cholSigma.LogDet(), cholS.LogDet())
	}
}

// TestLowRankTruncateRetractsFantasies checks the downdate-based retraction:
// append then truncate restores predictions within roundoff.
func TestLowRankTruncateRetractsFantasies(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	X, y := incrTrainSet(rng, 70, 2)
	m, err := Fit(X[:66], y[:66], Config{Kernel: kernel.NewSEARD(2), FixedNoise: fixedNoise(1e-2), Restarts: 1, Inducing: 24}, rng)
	if err != nil {
		t.Fatal(err)
	}
	probes := [][]float64{{1, 1}, {2, 3}, {0.5, 3.5}}
	muBefore := make([]float64, len(probes))
	for i, p := range probes {
		muBefore[i], _ = m.PredictLatent(p)
	}
	for i := 66; i < 70; i++ {
		if err := m.AppendObservation(X[i], y[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Truncate(66); err != nil {
		t.Fatal(err)
	}
	if m.TrainingSize() != 66 {
		t.Fatalf("size %d after truncate, want 66", m.TrainingSize())
	}
	for i, p := range probes {
		mu, _ := m.PredictLatent(p)
		if !almostEqF(mu, muBefore[i], 1e-9) {
			t.Fatalf("probe %d: %v vs %v after retraction", i, mu, muBefore[i])
		}
	}
	// Truncating past the last full fit must be refused.
	if err := m.Truncate(60); err == nil {
		t.Fatal("expected error truncating past the fitted prefix")
	}
}

func almostEqF(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

// TestJitterPathsIn36D drives both Cholesky jitter escalations of a 36-D
// SE-ARD model with warm hyperparameters and a 1e-10 noise floor, where
// points 1e-13 apart make the Gram matrix numerically singular:
//
//   - fit: near-duplicate training pairs, so Fit's factorization needs
//     jitter;
//   - append: distinct training points (no jitter at Fit), so the rank-1
//     AppendRow of each near-duplicate observation needs its own.
//
// After Fit and after every append the posterior must be finite with
// nonnegative variance, and Truncate back to the fitted size must restore
// the fitted posterior bit for bit.
func TestJitterPathsIn36D(t *testing.T) {
	const d, n, appends = 36, 24, 6
	near := func(x []float64) []float64 {
		c := append([]float64(nil), x...)
		c[0] += 1e-13
		return c
	}
	warm := make([]float64, d+1) // unit amplitude, length scales √d
	for j := 1; j <= d; j++ {
		warm[j] = 0.5 * math.Log(d)
	}
	for _, tc := range []struct {
		name     string
		fitPairs bool
	}{{"fit", true}, {"append", false}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(36))
			base, y0 := incrTrainSet(rng, n+4, d)
			X, y, probes := base[:n], y0[:n], base[n:]
			if tc.fitPairs {
				X, y = nil, nil
				for i := 0; i < n/2; i++ {
					X = append(X, base[i], near(base[i]))
					y = append(y, y0[i], y0[i])
				}
			}
			m, err := Fit(X, y, Config{
				Kernel: kernel.NewSEARD(d), FixedNoise: fixedNoise(1e-10),
				WarmStart: warm, SkipTraining: true,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.chol.Jitter; (got > 0) != tc.fitPairs {
				t.Fatalf("jitter %g after Fit; want jitter exactly when the training set has near-duplicates", got)
			}
			posterior := func(stage string) []float64 {
				t.Helper()
				var out []float64
				for _, x := range probes {
					mu, va := m.PredictLatent(x)
					if math.IsNaN(mu) || math.IsInf(mu, 0) || math.IsNaN(va) || math.IsInf(va, 0) || va < 0 {
						t.Fatalf("%s: posterior (%v, %v) at a probe", stage, mu, va)
					}
					out = append(out, mu, va)
				}
				return out
			}
			fitted := posterior("fit")
			for i := 0; i < appends; i++ {
				if err := m.AppendObservation(near(near(base[i])), y0[i]); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				if m.chol.Jitter <= 0 {
					t.Fatalf("append %d: no jitter on a near-duplicate row", i)
				}
				posterior("append")
			}
			if err := m.Truncate(len(X)); err != nil {
				t.Fatal(err)
			}
			for i, v := range posterior("truncate") {
				if math.Float64bits(v) != math.Float64bits(fitted[i]) {
					t.Fatalf("truncated posterior[%d] = %v, fitted %v", i, v, fitted[i])
				}
			}
		})
	}
}
