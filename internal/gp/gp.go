// Package gp implements exact Gaussian-process regression (§2.3 of the
// paper): zero-mean GPs with trainable kernels, observation-noise estimation,
// negative-log-marginal-likelihood training with analytic gradients and
// multi-restart L-BFGS, and posterior mean/variance prediction (eq. 4).
//
// Inputs and outputs are standardized internally (zero mean, unit variance
// per coordinate) so that the default hyperparameter bounds are meaningful
// for any problem scaling; predictions are mapped back automatically.
package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/optimize"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// minLogNoise and maxLogNoise bound the trained log σ_n.
const minLogNoise, maxLogNoise = -8.0, 1.0

// Config controls model training. The zero value of optional fields selects
// sensible defaults.
type Config struct {
	// Kernel is the covariance function (required). The model owns the
	// kernel after Fit; pass a Clone if the caller needs to keep it.
	Kernel kernel.Kernel
	// Restarts is the number of random restarts for hyperparameter training
	// in addition to the default initialization (default 2).
	Restarts int
	// MaxIter bounds L-BFGS iterations per restart (default 100).
	MaxIter int
	// FixedNoise, when non-nil, pins σ_n to the given value (in standardized
	// output units) instead of training it. Use a small value such as 1e-4
	// for noiseless computer experiments.
	FixedNoise *float64
	// noStandardizeX disables input standardization (set by the low-rank
	// subset fit, whose inputs are already standardized).
	noStandardizeX bool
	// WarmStart, when non-nil, is used as the primary training start instead
	// of the default initialization — pass a previous fit's Hyper() to speed
	// up incremental refits. Its length must be NumHyper()+1 (kernel hypers
	// plus log-noise); the noise entry is ignored under FixedNoise.
	WarmStart []float64
	// SkipTraining keeps the WarmStart hyperparameters (or the kernel's
	// current ones when WarmStart is nil) without optimizing the NLML. The
	// BO loop uses it between periodic full refits: the covariance is
	// re-factorized with the new data but hyperparameters stay put.
	SkipTraining bool
	// Inducing, when positive and smaller than the training size, switches
	// the model to the opt-in low-rank (inducing-point / DTC) approximation:
	// hyperparameters are trained subset-of-data on Inducing strided points
	// and the posterior is the deterministic-training-conditional over that
	// set — O(n·m²) training, O(m) mean / O(m²) variance prediction, and
	// O(m²) incremental appends. Zero (the default) keeps the exact GP.
	Inducing int
	// Workers bounds the goroutines used for multi-restart training and
	// batched prediction: 0 selects parallel.DefaultWorkers(), 1 forces the
	// serial path, n > 1 uses up to n goroutines. Results are bit-identical
	// for every setting — restarts run on cloned kernels from pre-drawn
	// starting points and reduce in restart order.
	Workers int
	// Span, when non-nil, parents a "gp.fit" trace span around the training
	// run (annotated with the dataset size, restart bookkeeping and final
	// NLML). nil is a zero-allocation no-op and never changes results.
	Span *telemetry.Span
}

func (c *Config) defaults() error {
	if c.Kernel == nil {
		return errors.New("gp: Config.Kernel is required")
	}
	if c.Restarts < 0 {
		return fmt.Errorf("gp: negative restarts %d", c.Restarts)
	}
	if c.Restarts == 0 {
		c.Restarts = 2
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 100
	}
	return nil
}

// Model is a trained Gaussian-process regressor.
type Model struct {
	cfg  Config
	kern kernel.Kernel

	// Standardization parameters.
	xMean, xStd []float64
	yMean, yStd float64

	// Standardized training data.
	xs [][]float64
	ys []float64

	logNoise float64 // log σ_n in standardized output units

	chol  *linalg.Cholesky
	alpha []float64 // K⁻¹ y (standardized)
	nlml  float64
	info  FitInfo

	// lowRank, when non-nil, replaces chol/alpha with the inducing-point
	// approximation (Config.Inducing).
	lowRank *lowRankState

	// Incremental-maintenance scratch (AppendObservation / Truncate).
	rowBuf, diffBuf, solveBuf, factBuf []float64

	// predScratch holds the predictScratch buffers of finished predictions,
	// so that PredictLatent allocates nothing in steady state even under
	// concurrent batch prediction.
	predScratch parallel.FreeList[*predictScratch]
}

// predictScratch is the per-goroutine buffer set for one posterior
// evaluation: the standardized query point, the cross-covariance row, the
// forward-solve vector, a difference vector and the row's kernel factors
// (see factors) for the kernel profile, and the profile itself (profiles
// carry scratch and must not be shared across goroutines).
// PredictLatentAugmented adds the per-row design-space kernel factors k2, k3
// and the augmented point of its per-point fallback.
type predictScratch struct {
	x, ks, v, diff, fact []float64
	k2, k3, aug          []float64
	prof                 kernel.PairProfile
}

func (m *Model) getPredictScratch() *predictScratch {
	if sc, ok := m.predScratch.Get(); ok {
		return sc
	}
	n, d := len(m.xs), len(m.xMean)
	return &predictScratch{
		x:    make([]float64, d),
		ks:   make([]float64, n),
		v:    make([]float64, n),
		diff: make([]float64, d),
		aug:  make([]float64, d),
		prof: m.kern.Profile(),
	}
}

// grow resizes the per-row buffers for n training rows: incremental appends
// can outgrow buffers sized at fit time.
func (sc *predictScratch) grow(n int) {
	if len(sc.ks) < n {
		sc.ks = make([]float64, n)
		sc.v = make([]float64, n)
	}
}

// Fit trains a GP on the dataset (X, y). Hyperparameters are obtained by
// minimizing the NLML (eq. 3) with analytic gradients, multi-restarted from
// random initializations drawn with rng.
func Fit(X [][]float64, y []float64, cfg Config, rng *rand.Rand) (*Model, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	n := len(X)
	if n == 0 {
		return nil, errors.New("gp: empty training set")
	}
	if len(y) != n {
		return nil, fmt.Errorf("gp: %d inputs but %d observations", n, len(y))
	}
	d := len(X[0])
	if cfg.Kernel.Dim() != d {
		return nil, fmt.Errorf("gp: kernel dim %d != input dim %d", cfg.Kernel.Dim(), d)
	}
	span := cfg.Span.Child("gp.fit")
	defer span.End()
	span.Attr("n", float64(n))
	span.Attr("dim", float64(d))
	m := &Model{cfg: cfg, kern: cfg.Kernel}
	m.standardize(X, y)

	if cfg.Inducing > 0 && cfg.Inducing < n {
		span.Attr("inducing", float64(cfg.Inducing))
		if err := m.fitLowRank(rng); err != nil {
			span.Attr("failed", 1)
			return nil, err
		}
		span.Attr("nlml", m.nlml)
		return m, nil
	}

	nk := m.kern.NumHyper()
	nTotal := nk
	trainNoise := cfg.FixedNoise == nil
	if trainNoise {
		nTotal++
	} else {
		m.logNoise = math.Log(math.Max(*cfg.FixedNoise, 1e-10))
	}

	if cfg.SkipTraining {
		if trainNoise {
			m.logNoise = math.Log(1e-2)
		}
		if len(cfg.WarmStart) >= nk {
			m.kern.SetHyper(cfg.WarmStart[:nk])
			if trainNoise && len(cfg.WarmStart) > nk {
				m.logNoise = clamp(cfg.WarmStart[nk], minLogNoise, maxLogNoise)
			}
		}
		if err := m.factorize(); err != nil {
			return nil, err
		}
		m.info = FitInfo{SkippedTraining: true}
		span.Attr("skipped", 1)
		span.Attr("nlml", m.nlml)
		return m, nil
	}

	loK, hiK := kernel.BoundsVectors(m.kern)
	// Pre-draw every starting point serially so the rng stream is consumed in
	// the same order regardless of the worker count. Start 0 is the default
	// initialization (zeros: unit amplitude/length scales, modest noise) or
	// the caller's warm start; the rest are random restarts.
	starts := make([][]float64, 1+cfg.Restarts)
	start := make([]float64, nTotal)
	if trainNoise {
		start[nk] = math.Log(1e-2)
	}
	if len(cfg.WarmStart) >= nk {
		copy(start[:nk], cfg.WarmStart[:nk])
		if trainNoise && len(cfg.WarmStart) > nk {
			start[nk] = clamp(cfg.WarmStart[nk], minLogNoise, maxLogNoise)
		}
	}
	starts[0] = start
	for r := 0; r < cfg.Restarts; r++ {
		theta0 := make([]float64, nTotal)
		for j := 0; j < nk; j++ {
			theta0[j] = loK[j] + rng.Float64()*(hiK[j]-loK[j])*0.5 + 0.25*(hiK[j]-loK[j])
		}
		if trainNoise {
			theta0[nk] = minLogNoise + rng.Float64()*(maxLogNoise-minLogNoise)
		}
		starts[1+r] = theta0
	}

	// Geometry cache: the pairwise difference tensor is computed once and
	// shared read-only by every restart and every L-BFGS iteration.
	geo := newPairGeo(m.xs)

	// Run every restart's L-BFGS concurrently on per-worker workspaces with
	// cloned kernels. Task i writes only results[i]; the argmin reduction
	// below runs in restart order, so the selected optimum is identical to
	// the serial schedule for any worker count.
	type fitResult struct {
		f                     float64
		x                     []float64
		valueEvals, gradEvals int
	}
	results := make([]fitResult, len(starts))
	workers := parallel.Workers(cfg.Workers)
	if workers > len(starts) {
		workers = len(starts)
	}
	wss := make([]*fitWorkspace, workers)
	for w := range wss {
		wss[w] = newFitWorkspace(m.kern, geo, m.ys)
	}
	fixedLogNoise := m.logNoise
	parallel.ForEachWorker(workers, len(starts), func(w, idx int) {
		ws := wss[w]
		// Objective over the packed hyper vector [kernel hypers..., logNoise?].
		obj := func(theta, grad []float64) float64 {
			ws.kern.SetHyper(theta[:nk])
			if trainNoise {
				ws.logNoise = clamp(theta[nk], minLogNoise, maxLogNoise)
			} else {
				ws.logNoise = fixedLogNoise
			}
			if grad == nil {
				v, err := ws.nlmlValue()
				if err != nil {
					return math.Inf(1)
				}
				return v
			}
			v, g, err := ws.nlmlGrad()
			if err != nil {
				for i := range grad {
					grad[i] = 0
				}
				return math.Inf(1)
			}
			copy(grad, g[:len(grad)])
			return v
		}
		r := optimize.LBFGS(obj, starts[idx], optimize.LBFGSConfig{MaxIter: cfg.MaxIter})
		results[idx] = fitResult{f: r.F, x: r.X, valueEvals: r.ValueEvals, gradEvals: r.GradEvals}
	})
	bestTheta := make([]float64, nTotal)
	bestNLML := math.Inf(1)
	info := FitInfo{Restarts: len(starts)}
	valueEvals, gradEvals := 0, 0
	for i, r := range results {
		valueEvals += r.valueEvals
		gradEvals += r.gradEvals
		if math.IsNaN(r.f) || math.IsInf(r.f, 1) {
			info.Diverged++
		}
		// Selection is exactly the pre-telemetry rule (strict <, NaN
		// excluded), so recording FitInfo cannot change which start wins.
		if r.f < bestNLML && !math.IsNaN(r.f) {
			bestNLML = r.f
			info.BestStart = i
			copy(bestTheta, r.x)
		}
	}
	span.Attr("value_evals", float64(valueEvals))
	span.Attr("grad_evals", float64(gradEvals))
	if math.IsInf(bestNLML, 1) {
		span.Attr("failed", 1)
		return nil, errors.New("gp: training failed from every restart")
	}
	m.kern.SetHyper(bestTheta[:nk])
	if trainNoise {
		m.logNoise = clamp(bestTheta[nk], minLogNoise, maxLogNoise)
	}
	if err := m.factorize(); err != nil {
		return nil, err
	}
	m.info = info
	span.Attr("restarts", float64(info.Restarts))
	span.Attr("diverged", float64(info.Diverged))
	span.Attr("nlml", m.nlml)
	return m, nil
}

// FitInfo summarizes the hyperparameter-training bookkeeping of one Fit:
// how many L-BFGS starts ran, how many diverged to a non-finite NLML, and
// which start won. SkippedTraining marks warm-hyperparameter refits that
// bypassed optimization entirely (Config.SkipTraining).
type FitInfo struct {
	Restarts        int // starting points run (default/warm start included)
	Diverged        int // starts whose NLML ended non-finite
	BestStart       int // winning start index (0 = default/warm start)
	SkippedTraining bool
	LowRank         bool // inducing-point approximation active
}

// FitInfo returns the training bookkeeping recorded by Fit.
func (m *Model) FitInfo() FitInfo { return m.info }

// standardize stores standardization parameters and the transformed data.
func (m *Model) standardize(X [][]float64, y []float64) {
	n, d := len(X), len(X[0])
	m.xMean = make([]float64, d)
	m.xStd = make([]float64, d)
	for j := 0; j < d; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += X[i][j]
		}
		mu := s / float64(n)
		ss := 0.0
		for i := 0; i < n; i++ {
			dv := X[i][j] - mu
			ss += dv * dv
		}
		sd := math.Sqrt(ss / float64(n))
		if sd < 1e-12 || m.cfg.noStandardizeX {
			mu, sd = 0, 1
		}
		m.xMean[j], m.xStd[j] = mu, sd
	}
	sy := 0.0
	for _, v := range y {
		sy += v
	}
	m.yMean = sy / float64(n)
	ssy := 0.0
	for _, v := range y {
		dv := v - m.yMean
		ssy += dv * dv
	}
	m.yStd = math.Sqrt(ssy / float64(n))
	if m.yStd < 1e-12 {
		m.yStd = 1
	}
	m.xs = make([][]float64, n)
	for i := range X {
		m.xs[i] = m.toStdX(X[i])
	}
	m.ys = make([]float64, n)
	for i, v := range y {
		m.ys[i] = (v - m.yMean) / m.yStd
	}
}

func (m *Model) toStdX(x []float64) []float64 {
	out := make([]float64, len(x))
	m.toStdXInto(x, out)
	return out
}

func (m *Model) toStdXInto(x, out []float64) {
	for j := range x {
		out[j] = (x[j] - m.xMean[j]) / m.xStd[j]
	}
}

// factorize builds the Cholesky of K + σ_n²I and the alpha vector for the
// current hyperparameters, using the kernel's pair profile (hyperparameter
// transcendentals hoisted out of the O(n²) loop).
func (m *Model) factorize() error {
	n := len(m.xs)
	K := linalg.NewMatrix(n, n)
	noise2 := math.Exp(2 * m.logNoise)
	prof := m.kern.Profile()
	diff := make([]float64, len(m.xMean))
	var fact []float64
	if nf := prof.NumFactors(); nf > 1 {
		fact = make([]float64, n*nf)
	}
	for i := 0; i < n; i++ {
		row := K.Data[i*n+i : (i+1)*n]
		kernelRow(prof, m.xs[i], m.xs[i:], diff, fact, row)
		for j, v := range row {
			K.Set(i+j, i, v)
		}
		K.Add(i, i, noise2)
	}
	chol, err := linalg.NewCholesky(K)
	if err != nil {
		return fmt.Errorf("gp: covariance factorization: %w", err)
	}
	m.chol = chol
	m.alpha = chol.SolveVec(m.ys)
	m.nlml = 0.5*linalg.Dot(m.ys, m.alpha) + 0.5*chol.LogDet() + 0.5*float64(n)*math.Log(2*math.Pi)
	return nil
}

// Predict returns the posterior predictive mean and variance at x, including
// observation noise (first line of eq. 4 plus σ_n², matching the paper).
func (m *Model) Predict(x []float64) (mean, variance float64) {
	mean, variance = m.PredictLatent(x)
	variance += math.Exp(2*m.logNoise) * m.yStd * m.yStd
	return mean, variance
}

// PredictLatent returns the posterior mean and variance of the latent
// function value f(x), excluding observation noise. It is safe for
// concurrent use and allocates nothing in steady state: all buffers (and the
// kernel's pair profile) are kept by the model for reuse.
func (m *Model) PredictLatent(x []float64) (mean, variance float64) {
	sc := m.getPredictScratch()
	mean, variance = m.predictLatentInto(x, sc)
	m.predScratch.Put(sc)
	return mean, variance
}

func (m *Model) predictLatentInto(x []float64, sc *predictScratch) (mean, variance float64) {
	m.toStdXInto(x, sc.x)
	n := len(m.xs)
	sc.grow(n)
	if m.lowRank != nil {
		return m.lowRank.predict(m, sc)
	}
	ks, v := sc.ks[:n], sc.v[:n]
	kernelRow(sc.prof, sc.x, m.xs, sc.diff, sc.factors(n), ks)
	kss := sc.prof.Eval(zero(sc.diff))
	mu := linalg.Dot(ks, m.alpha)
	m.chol.ForwardSolveInto(ks, v)
	va := kss - linalg.Dot(v, v)
	if va < 0 {
		va = 0
	}
	return m.yMean + m.yStd*mu, va * m.yStd * m.yStd
}

// kernelRow writes k(x, rows[i]) into out[i] for every row, evaluating prof
// on the difference vector x − rows[i] built in diff: every row's exp
// arguments go into fact, one linalg.ExpInto takes their exps, and
// FromFactors combines each row's. fact needs len(rows)·NumFactors entries
// when the profile has more than one factor per pair; with one, out holds
// the factors and fact is not used.
func kernelRow(prof kernel.PairProfile, x []float64, rows [][]float64, diff, fact, out []float64) {
	nf := prof.NumFactors()
	if nf == 1 {
		fact = out
	}
	fact = fact[:len(rows)*nf]
	for i, xi := range rows {
		for t := range diff {
			diff[t] = x[t] - xi[t]
		}
		prof.FactorArgs(diff, fact[i*nf:i*nf+nf])
	}
	linalg.ExpInto(fact, fact)
	for i := range rows {
		out[i] = prof.FromFactors(fact[i*nf : i*nf+nf])
	}
}

// factors returns kernelRow's factor buffer for n rows, grown on first use
// by a profile with more than one factor per pair, and nil for a profile
// with one.
func (sc *predictScratch) factors(n int) []float64 {
	k := n * sc.prof.NumFactors()
	if k == n {
		return nil
	}
	if len(sc.fact) < k {
		sc.fact = make([]float64, k)
	}
	return sc.fact
}

// zero clears v and returns it.
func zero(v []float64) []float64 {
	for i := range v {
		v[i] = 0
	}
	return v
}

// splitProfile is a pair profile whose value splits into a part that reads
// only the leading (design-space) coordinates of the difference vector and a
// combination with the last coordinate; kernel.NARGP's profile is one.
// XArgs returns the exp arguments of the design-space part. For every diff
// whose last coordinate is t − f, with k2 and k3 the exps of XArgs(diff),
// CombineRow([t], f, k2, k3) must equal Eval(diff) bit for bit.
type splitProfile interface {
	kernel.PairProfile
	XArgs(diff []float64) (a2, a3 float64)
	CombineRow(ts []float64, f, k2, k3 float64, out []float64)
}

// PredictLatentAugmented writes the latent posterior at the augmented points
// (x, ts[s]) into means[s] and variances[s] for every s; x holds the leading
// Dim()−1 input coordinates. Each result is bit-identical to PredictLatent on
// the augmented point. It serves fused multi-fidelity predictions, where
// every point of a propagation cloud shares x: with a kernel whose profile is
// a splitProfile (kernel.NARGP) on an exact model, x is standardized once, the
// design-space kernel factors of every training row and the prior variance
// are computed once, and the whole cloud is then evaluated as one block (see
// predictSplit). Low-rank models and kernels without the split take the
// per-point path. Safe for concurrent use; allocates nothing in steady state.
func (m *Model) PredictLatentAugmented(x, ts, means, variances []float64) {
	sc := m.getPredictScratch()
	if sp, ok := sc.prof.(splitProfile); ok && m.lowRank == nil {
		m.predictSplit(x, ts, means[:len(ts)], variances[:len(ts)], sp, sc)
	} else {
		d := len(m.xMean) - 1
		aug := sc.aug
		copy(aug[:d], x)
		for s, t := range ts {
			aug[d] = t
			means[s], variances[s] = m.predictLatentInto(aug, sc)
		}
	}
	m.predScratch.Put(sc)
}

// cloudBlock is the scratch of one block prediction: the n×S kernel block
// (row i holds k(x_i, ·) for every node of the cloud, row-major) and the
// standardized nodes.
type cloudBlock struct {
	k, ts []float64
}

// blockPool holds cloudBlocks for every model of the process. The blocks
// are not kept per model: each Ask refits every model, so per-model blocks
// would be allocated again after every refit. A pooled block grows on
// demand and is reused by models of any size.
var blockPool sync.Pool

func getCloudBlock(n, S int) *cloudBlock {
	b, ok := blockPool.Get().(*cloudBlock)
	if !ok {
		b = new(cloudBlock)
	}
	if cap(b.k) < n*S {
		b.k = make([]float64, n*S)
	}
	if cap(b.ts) < S {
		b.ts = make([]float64, S)
	}
	return b
}

// predictSplit is PredictLatentAugmented's shared-x path. It repeats
// predictLatentInto's operations on the same operands in the same order, per
// node, while evaluating the S nodes of the cloud as one block:
//
//   - Kernel block. diff[t] = std(x)[t] − x_i[t] for the design coordinates
//     gives XArgs once per row, and one linalg.ExpInto per factor takes the
//     exps of all rows; CombineRow then fills row i of the block against
//     std(t_s) − x_i[last], reproducing every kernel row exactly.
//   - Mean. μ_s = Σ_i K[i,s]·α_i accumulates in i-order, as linalg.Dot does,
//     while row i is fresh: one linalg.AXPY per row into the S running sums
//     in means (α_i·K[i,s] rounds as K[i,s]·α_i does).
//   - Variance. One blocked forward solve takes each column through
//     ForwardSolveInto's operations, in place; Σ_i V[i,s]² then accumulates
//     in i-order into variances, one linalg.AddSquares per row, before the
//     per-point clamp and scaling.
func (m *Model) predictSplit(x, ts, means, variances []float64, sp splitProfile, sc *predictScratch) {
	d := len(m.xMean) - 1
	n, S := len(m.xs), len(ts)
	if len(sc.k2) < n {
		sc.k2 = make([]float64, n)
		sc.k3 = make([]float64, n)
	}
	xs, diff := sc.x, sc.diff
	m.toStdXInto(x[:d], xs)
	k2, k3 := sc.k2[:n], sc.k3[:n]
	for i := 0; i < n; i++ {
		xi := m.xs[i]
		for t := 0; t < d; t++ {
			diff[t] = xs[t] - xi[t]
		}
		k2[i], k3[i] = sp.XArgs(diff)
	}
	linalg.ExpInto(k2, k2)
	linalg.ExpInto(k3, k3)
	kss := sp.Eval(zero(diff))

	blk := getCloudBlock(n, S)
	sts, K := blk.ts[:S], blk.k[:n*S]
	mean, std := m.xMean[d], m.xStd[d]
	for s, t := range ts {
		sts[s] = (t - mean) / std
	}
	zero(means)
	for i := 0; i < n; i++ {
		row := K[i*S : (i+1)*S]
		sp.CombineRow(sts, m.xs[i][d], k2[i], k3[i], row)
		linalg.AXPY(m.alpha[i], row, means)
	}
	m.chol.ForwardSolveBlockInto(K, K, S)
	zero(variances)
	for i := 0; i < n; i++ {
		linalg.AddSquares(variances, K[i*S:(i+1)*S])
	}
	blockPool.Put(blk)
	for s := range means {
		means[s] = m.yMean + m.yStd*means[s]
		va := kss - variances[s]
		if va < 0 {
			va = 0
		}
		variances[s] = va * m.yStd * m.yStd
	}
}

// NLML returns the trained model's negative log marginal likelihood.
func (m *Model) NLML() float64 { return m.nlml }

// OutputStd returns the output standardization scale. Dividing a predictive
// variance by OutputStd()² expresses it in standardized units — the scale on
// which the paper's fidelity-selection threshold γ = 0.01 is meaningful
// across problems.
func (m *Model) OutputStd() float64 { return m.yStd }

// Kernel exposes the trained kernel (owned by the model; treat as read-only).
func (m *Model) Kernel() kernel.Kernel { return m.kern }

// TrainingSize returns the number of training points.
func (m *Model) TrainingSize() int { return len(m.xs) }

// Hyper returns the packed trained hyperparameters (kernel log-hypers
// followed by log-noise) — useful for warm-starting refits.
func (m *Model) Hyper() []float64 {
	h := kernel.HyperVector(m.kern)
	return append(h, m.logNoise)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
