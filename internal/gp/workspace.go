package gp

import (
	"math"
	"sync"

	"repro/internal/kernel"
	"repro/internal/linalg"
)

// fitWorkspace holds everything one training restart needs to evaluate the
// NLML and its gradient without allocating: a cloned kernel (so concurrent
// restarts never share mutable hyperparameter state), the covariance matrix,
// a reusable Cholesky, the per-pair kernel factors, and gradient
// accumulators. The geometry cache and the training targets are shared
// read-only across all workspaces.
//
// The arithmetic is ordered to be bit-identical to the original
// matrix-per-hyperparameter implementation: the covariance is filled
// symmetric-half-only (same values), and each gradient accumulator receives
// its terms in full-matrix row-major (i, j) order — exactly the order the
// reference tr(W·dK_h) loop used — so the optimizer walks the same
// trajectory to the last ulp.
//
// nlmlValue keeps its factorization as a same-point memo: the L-BFGS line
// search asks for the value at a trial point first and for the gradient at
// that point only once the value is accepted, and nlmlGrad then starts from
// the kept Cholesky factor, α, NLML, kernel profile and pair factors. The
// memo is keyed bitwise by the kernel's log-hyperparameters and the
// log-noise, so any SetHyper or noise change that alters a bit refactorizes.
// The workspace keeps one profile and refreshes it in place on every miss,
// so a new trial point allocates nothing.
//
// K is dead once it is factorized (a miss refills it from scratch), so
// nlmlGrad writes the precision matrix K⁻¹ into K's storage.
type fitWorkspace struct {
	kern     kernel.Kernel // private clone, mutated by SetHyper per objective call
	logNoise float64

	// Shared read-only state.
	geo *pairGeo
	ys  []float64

	// Reusable numerics.
	K     *linalg.Matrix // K + σ_n²·I, then K⁻¹ after nlmlGrad
	chol  *linalg.Cholesky
	alpha []float64
	fact  []float64 // per-pair kernel factors: pair p's NumFactors at p*NumFactors
	out   []float64 // NLML gradient accumulators, length nk+1

	// Same-point memo of the last successful nlmlValue.
	memoOK    bool
	hyper     []float64          // scratch: the kernel's current log-hyperparameters
	memoHyper []float64          // key: log-hyperparameters
	memoNoise float64            // key: log-noise
	prof      kernel.PairProfile // refreshed in place on a miss
	nlml      float64
}

func newFitWorkspace(kern kernel.Kernel, geo *pairGeo, ys []float64) *fitWorkspace {
	n := len(ys)
	nk := kern.NumHyper()
	w := &fitWorkspace{
		kern:      kern.Clone(),
		geo:       geo,
		ys:        ys,
		K:         linalg.NewMatrix(n, n),
		alpha:     make([]float64, n),
		out:       make([]float64, nk+1),
		hyper:     make([]float64, 0, nk),
		memoHyper: make([]float64, 0, nk),
	}
	w.prof = w.kern.Profile()
	w.fact = make([]float64, n*(n+1)/2*w.prof.NumFactors())
	return w
}

// fillCovariance writes K + σ_n²·I into dst (symmetric-half evaluation, both
// triangles stored) from the cached pair differences, and each pair's kernel
// factors into fact in the geometry's pair order: every pair's exp arguments
// first (one PairArgs over the difference columns), then one linalg.ExpInto
// over all of them, then the fill.
func fillCovariance(dst *linalg.Matrix, fact []float64, prof kernel.PairProfile, geo *pairGeo, noise2 float64) {
	n, P := geo.n, geo.pairs
	nf := prof.NumFactors()
	prof.PairArgs(geo.diffs, P, fact, nf)
	linalg.ExpInto(fact[:P*nf], fact[:P*nf])
	p := 0
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := prof.FromFactors(fact[p : p+nf])
			dst.Set(i, j, v)
			dst.Set(j, i, v)
			p += nf
		}
		dst.Add(i, i, noise2)
	}
}

// nlmlValue returns the negative log marginal likelihood for the
// workspace's current kernel state: covariance fill, Cholesky, α and NLML.
// A call at the bitwise-same hyperparameters and log-noise as the last
// successful one returns the memoized value without refactorizing.
func (w *fitWorkspace) nlmlValue() (float64, error) {
	w.hyper = w.kern.Hyper(w.hyper[:0])
	if w.memoOK && math.Float64bits(w.memoNoise) == math.Float64bits(w.logNoise) &&
		linalg.SameBits(w.memoHyper, w.hyper) {
		return w.nlml, nil
	}
	w.memoOK = false
	w.prof = kernel.RefreshProfile(w.kern, w.prof)
	noise2 := math.Exp(2 * w.logNoise)
	fillCovariance(w.K, w.fact, w.prof, w.geo, noise2)
	chol, err := linalg.NewCholeskyReuse(w.K, w.chol)
	if err != nil {
		return 0, err
	}
	w.chol = chol
	chol.SolveVecInto(w.ys, w.alpha)
	w.nlml = nlmlOf(w.ys, w.alpha, chol)
	w.memoHyper = append(w.memoHyper[:0], w.hyper...)
	w.memoNoise = w.logNoise
	w.memoOK = true
	return w.nlml, nil
}

// nlmlGrad returns the negative log marginal likelihood and its gradient with
// respect to the packed hyper vector [kernel hypers..., logNoise] for the
// workspace's current kernel state. The returned slice is w.out, valid until
// the next call.
func (w *fitWorkspace) nlmlGrad() (float64, []float64, error) {
	// Pass 1: covariance fill, pair factors and factorization, or the memo
	// of the value-only call at this point.
	nlml, err := w.nlmlValue()
	if err != nil {
		return 0, nil, err
	}
	n := len(w.ys)
	nk := w.kern.NumHyper()
	prof := w.prof
	nf := prof.NumFactors()
	noise2 := math.Exp(2 * w.logNoise)

	// Pass 2: precision matrix, written over K.
	kinv := w.K
	w.chol.InverseInto(kinv)

	// Pass 3: grad_h = ½ Σ_ij (K⁻¹_ij − α_i α_j)·∂K_ij/∂logθ_h, accumulated
	// in row-major (i, j) order per h. ∂K is symmetric, so PairGrads writes
	// each pair's gradient once, from pass 1's factors (no kernel exp is
	// taken here), and row i reads the pairs (j, i), j < i, gathered into
	// one block, then its own pairs (i, j), j ≥ i, which the pair order
	// keeps contiguous. AddScaledRows adds w_ij·∂K_ij for every h at once,
	// one j after another, so each accumulator receives its terms in the
	// reference order.
	out := w.out
	acc := out[:nk]
	for h := range acc {
		acc[h] = 0
	}
	geo := w.geo
	buf := getGradBuf(geo.pairs, n, nk)
	g, wrow := buf.g[:geo.pairs*nk], buf.w[:n]
	prof.PairGrads(geo.diffs, geo.pairs, w.fact, nf, g, nk)
	alpha := w.alpha
	for i := 0; i < n; i++ {
		wi := kinv.Row(i)
		ai := alpha[i]
		for j, aj := range alpha {
			wrow[j] = wi[j] - ai*aj
		}
		left := buf.left[:i*nk]
		for j := 0; j < i; j++ {
			copy(left[j*nk:(j+1)*nk], g[geo.pair(j, i)*nk:])
		}
		linalg.AddScaledRows(acc, wrow[:i], left, nk)
		r := geo.rowOff[i] * nk
		linalg.AddScaledRows(acc, wrow[i:], g[r:r+(n-i)*nk], nk)
	}
	gradPool.Put(buf)
	for h := range acc {
		acc[h] *= 0.5
	}
	// Noise gradient: ∂K/∂logσ_n = 2σ_n²·I.
	s := 0.0
	for i := 0; i < n; i++ {
		s += kinv.At(i, i) - alpha[i]*alpha[i]
	}
	out[nk] = 0.5 * s * 2 * noise2
	return nlml, out, nil
}

// gradBuf is the scratch of one gradient pass: every pair's ∂k/∂logθ in the
// geometry's pair order (pair p's NumHyper entries at g[p*nk:]), the
// gathered gradients of one row's pairs left of the diagonal, and the row's
// weights K⁻¹_ij − α_i α_j.
type gradBuf struct {
	g, left, w []float64
}

// gradPool holds gradBufs for every fit of the process, as blockPool holds
// cloudBlocks: a workspace lives for one Fit, so buffers kept per workspace
// would be allocated again at every fit. Each gradient pass holds one buffer
// from Get to Put, so the pool holds at most one per concurrent pass; a
// pooled buffer grows on demand and serves fits of any size.
var gradPool sync.Pool

func getGradBuf(pairs, n, nk int) *gradBuf {
	b, ok := gradPool.Get().(*gradBuf)
	if !ok {
		b = new(gradBuf)
	}
	if cap(b.g) < pairs*nk {
		b.g = make([]float64, pairs*nk)
	}
	if cap(b.left) < n*nk {
		b.left = make([]float64, n*nk)
	}
	if cap(b.w) < n {
		b.w = make([]float64, n)
	}
	return b
}
