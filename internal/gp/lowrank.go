// Opt-in low-rank (inducing-point) approximate GP for long histories: a
// deterministic-training-conditional (DTC / subset-of-regressors) posterior
// over m inducing points chosen as a stride of the training set, with
// hyperparameters trained subset-of-data on the inducing subset. Training
// costs O(n·m²) instead of O(n³); per-observation updates are O(m²) rank-1
// updates of the m×m information matrix, with the matching downdate for
// fantasy retraction.
package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
)

// lowRankState is the trained DTC approximation:
//
//	Σ  = K_mm + σ⁻²·K_mn·K_nm   (information matrix)
//	w  = σ⁻²·Σ⁻¹·K_mn·y         (predictive weights)
//	µ(x)  = k_m(x)·w
//	σ²(x) = k** − k_mᵀK_mm⁻¹k_m + k_mᵀΣ⁻¹k_m
//
// b = K_mn·y and yy = yᵀy are maintained incrementally so appends and
// retractions never touch the full history.
type lowRankState struct {
	zs        [][]float64 // standardized inducing inputs (m rows)
	cholMM    *linalg.Cholesky
	cholSigma *linalg.Cholesky
	b         []float64
	w         []float64
	yy        float64
	n         int // observations folded in
	noise2    float64
	u         []float64 // rank-1 update/downdate vector k_m/σ

	stack []lrPush // undo log for Truncate, newest last
}

// lrPush records what one AppendObservation added, so Truncate can downdate.
type lrPush struct {
	km []float64 // cross-covariances to the inducing set
	y  float64   // standardized observation
}

// inducingIndices returns m strided indices over [0, n) — deterministic,
// order-preserving coverage of the history (newest and oldest both included).
func inducingIndices(n, m int) []int {
	idx := make([]int, m)
	for i := 0; i < m; i++ {
		idx[i] = i * n / m
	}
	idx[m-1] = n - 1
	return idx
}

// fitLowRank trains the approximation after standardize has run: hypers are
// optimized subset-of-data on the inducing subset (or frozen per
// SkipTraining/WarmStart), then the DTC state is built over the full history.
func (m *Model) fitLowRank(rng *rand.Rand) error {
	cfg := &m.cfg
	n := len(m.xs)
	nk := m.kern.NumHyper()
	trainNoise := cfg.FixedNoise == nil
	idx := inducingIndices(n, cfg.Inducing)
	if cfg.SkipTraining {
		m.setWarmStart(nk, trainNoise)
		m.info = FitInfo{SkippedTraining: true, LowRank: true}
	} else {
		subX := make([][]float64, len(idx))
		subY := make([]float64, len(idx))
		for i, j := range idx {
			subX[i] = m.xs[j]
			subY[i] = m.ys[j]
		}
		sub, err := Fit(subX, subY, Config{
			Kernel: m.kern.Clone(), Restarts: cfg.Restarts, MaxIter: cfg.MaxIter,
			FixedNoise: cfg.FixedNoise, noStandardizeX: true, WarmStart: cfg.WarmStart,
			Workers: cfg.Workers, Span: cfg.Span,
		}, rng)
		if err != nil {
			return fmt.Errorf("gp: low-rank subset training: %w", err)
		}
		h := sub.Hyper()
		m.kern.SetHyper(h[:nk])
		if trainNoise {
			m.logNoise = clamp(h[nk], minLogNoise, maxLogNoise)
		} else {
			m.logNoise = math.Log(math.Max(*cfg.FixedNoise, 1e-10))
		}
		m.info = sub.FitInfo()
		m.info.LowRank = true
	}
	return m.buildLowRank(idx)
}

// buildLowRank assembles the DTC state for the current hyperparameters over
// the full standardized history in O(n·m²).
func (m *Model) buildLowRank(idx []int) error {
	n := len(m.xs)
	mi := len(idx)
	lr := &lowRankState{noise2: math.Exp(2 * m.logNoise), n: n, u: make([]float64, mi)}
	lr.zs = make([][]float64, mi)
	for i, j := range idx {
		lr.zs[i] = m.xs[j]
	}
	// The model is low-rank from here on (a failed build fails the Fit), so
	// its prediction scratch, this one first, is sized to the inducing set.
	m.lowRank = lr
	sc := m.getPredictScratch()
	defer m.predScratch.Put(sc)
	kmm := linalg.NewMatrix(mi, mi)
	// Nugget for the rank-deficient K_mm (duplicate design rows).
	fillRows(kmm, sc.prof, lr.zs, 1e-8)
	cholMM, err := linalg.NewCholesky(kmm)
	if err != nil {
		return fmt.Errorf("gp: inducing covariance factorization: %w", err)
	}
	sigma := linalg.NewMatrix(mi, mi)
	copy(sigma.Data, kmm.Data)
	lr.b = make([]float64, mi)
	km := sc.ks[:mi]
	fact := sc.factors(mi)
	inv := 1 / lr.noise2
	for t := 0; t < n; t++ {
		kernelRow(sc.prof, m.xs[t], lr.zs, sc.diff, fact, km)
		yt := m.ys[t]
		lr.yy += yt * yt
		for i := 0; i < mi; i++ {
			lr.b[i] += km[i] * yt
			row := sigma.Data[i*mi : (i+1)*mi]
			s := inv * km[i]
			for j := 0; j < mi; j++ {
				row[j] += s * km[j]
			}
		}
	}
	cholSigma, err := linalg.NewCholesky(sigma)
	if err != nil {
		return fmt.Errorf("gp: information-matrix factorization: %w", err)
	}
	lr.cholMM = cholMM
	lr.cholSigma = cholSigma
	lr.w = make([]float64, mi)
	lr.refreshWeights(m)
	m.chol = nil
	m.alpha = nil
	return nil
}

// refreshWeights recomputes w = σ⁻²Σ⁻¹b and the approximate NLML (matrix
// determinant lemma + Woodbury) in O(m²).
func (lr *lowRankState) refreshWeights(m *Model) {
	lr.cholSigma.SolveVecInto(lr.b, lr.w)
	inv := 1 / lr.noise2
	quad := lr.yy
	for i, wi := range lr.w {
		lr.w[i] = wi * inv
		quad -= lr.b[i] * lr.w[i]
	}
	quad *= inv
	logdet := float64(lr.n)*math.Log(lr.noise2) + lr.cholSigma.LogDet() - lr.cholMM.LogDet()
	m.nlml = 0.5*quad + 0.5*logdet + 0.5*float64(lr.n)*math.Log(2*math.Pi)
}

// predict evaluates the DTC posterior at a standardized point, using the
// caller's scratch (ks holds k_m, v the triangular solves).
func (lr *lowRankState) predict(m *Model, sc *predictScratch) (mean, variance float64) {
	mi := len(lr.zs)
	km := sc.ks[:mi]
	kernelRow(sc.prof, sc.x, lr.zs, sc.diff, sc.factors(mi), km)
	mu := linalg.Dot(km, lr.w)
	kss := sc.prof.Eval(zero(sc.diff))
	v := sc.v[:mi]
	lr.cholMM.ForwardSolveInto(km, v)
	va := kss - linalg.Dot(v, v)
	lr.cholSigma.ForwardSolveInto(km, v)
	va += linalg.Dot(v, v)
	if va < 0 {
		va = 0
	}
	return m.yMean + m.yStd*mu, va * m.yStd * m.yStd
}

// append folds one standardized observation in O(m²): Σ gets a rank-1 update
// with k_m/σ, b and yy accumulate, and the weights/NLML are refreshed. The
// push is recorded so truncate can retract it with the matching downdate.
func (lr *lowRankState) append(m *Model, sx []float64, sy float64) error {
	mi := len(lr.zs)
	km := make([]float64, mi)
	sc := m.getPredictScratch()
	kernelRow(sc.prof, sx, lr.zs, sc.diff, sc.factors(mi), km)
	m.predScratch.Put(sc)
	s := 1 / math.Sqrt(lr.noise2)
	for i, v := range km {
		lr.u[i] = v * s
	}
	lr.cholSigma.RankOneUpdate(lr.u)
	for i, v := range km {
		lr.b[i] += v * sy
	}
	lr.yy += sy * sy
	lr.n++
	lr.stack = append(lr.stack, lrPush{km: km, y: sy})
	lr.refreshWeights(m)
	return nil
}

// truncate retracts appends down to n observations by downdating Σ per popped
// point. A failed downdate (numerically indefinite) leaves the state unusable
// and returns ErrNotPositiveDefinite — callers fall back to a full refit.
func (lr *lowRankState) truncate(m *Model, n int) error {
	if lr.n-n > len(lr.stack) {
		return errors.New("gp: low-rank truncation past the last full fit")
	}
	s := 1 / math.Sqrt(lr.noise2)
	for lr.n > n {
		p := lr.stack[len(lr.stack)-1]
		lr.stack = lr.stack[:len(lr.stack)-1]
		for i, v := range p.km {
			lr.u[i] = v * s
		}
		if err := lr.cholSigma.RankOneDowndate(lr.u); err != nil {
			return fmt.Errorf("gp: fantasy retraction: %w", err)
		}
		for i, v := range p.km {
			lr.b[i] -= v * p.y
		}
		lr.yy -= p.y * p.y
		lr.n--
	}
	lr.refreshWeights(m)
	return nil
}

// IsLowRank reports whether the model uses the inducing-point approximation.
func (m *Model) IsLowRank() bool { return m.lowRank != nil }
