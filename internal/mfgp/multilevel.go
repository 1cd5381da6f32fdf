package mfgp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// MultiLevel generalizes the paper's two-fidelity model to L ≥ 2 fidelity
// levels with the recursive NARGP scheme of Perdikaris et al. (2017):
// level 0 is a plain GP over x, and every level ℓ > 0 is a GP over the
// augmented input (x, f̂_{ℓ−1}(x)) with the structured kernel of eq. (9).
// The paper's model is L = 2 (see Fit); longer chains back the
// fidelity-ladder engine (K > 2 rungs) the introduction motivates ("we can
// always carry out the circuit simulation at different precision levels").
type MultiLevel struct {
	models  []*gp.Model // models[0] over x, models[ℓ>0] over (x, prev)
	dim     int
	zs      [][]float64 // propagation nodes per fused level
	weights []float64   // quadrature weights (GaussHermite); nil for MC

	// scratch recycles the buffers of fused predictions (see levelScratch),
	// so Predict allocates nothing in steady state even when acquisition
	// loops hammer it concurrently.
	scratch parallel.FreeList[*levelScratch]
}

// levelScratch is the buffer set of one fused prediction: the augmented point
// (x, f̂_{ℓ−1}(x)) of the plug-in step taken when the lower posterior is
// exact (σ = 0), and the propagation cloud with the per-node posteriors of
// the sampled step.
type levelScratch struct {
	aug          []float64
	ts, mus, vas []float64
}

func (m *MultiLevel) getScratch() *levelScratch {
	if sc, ok := m.scratch.Get(); ok {
		return sc
	}
	n := 0
	for _, zs := range m.zs {
		n = max(n, len(zs))
	}
	return &levelScratch{aug: make([]float64, m.dim+1),
		ts: make([]float64, n), mus: make([]float64, n), vas: make([]float64, n)}
}

// MultiLevelConfig tunes multi-level training.
type MultiLevelConfig struct {
	// Restarts / MaxIter / FixedNoise forward to gp.Fit at every level.
	Restarts, MaxIter int
	FixedNoise        *float64
	// Propagation selects how each level's posterior is pushed through the
	// next: MonteCarlo (default) or GaussHermite.
	Propagation Propagation
	// NumSamples is the propagation cloud size per fused level (default 50
	// for MonteCarlo or 20 nodes for GaussHermite).
	NumSamples int
	// WarmStarts, when non-nil, supplies per-level hyperparameter starts
	// (WarmStarts[l] forwards to gp.Config.WarmStart for level l; nil
	// entries fall back to the default start).
	WarmStarts [][]float64
	// SkipTraining keeps warm-start hyperparameters without optimizing, per
	// level, for every level that has a WarmStarts entry. It is the
	// fit-skipping fast path of the incremental maintenance schedule.
	SkipTraining bool
	// TrainTarget exempts the top (target) level from SkipTraining: its
	// training set is the smallest, so the BO loop retrains it even between
	// full refits while the cheaper levels keep their warm hyperparameters.
	TrainTarget bool
	// Inducing forwards to gp.Config.Inducing at every level.
	Inducing int
	// Workers forwards to gp.Config.Workers at every level (0 = default,
	// 1 = serial); results are bit-identical for every setting.
	Workers int
	// Span, when non-nil, parents the per-level gp.fit trace spans.
	Span *telemetry.Span
}

// levelGPConfig assembles the gp.Config for one of levels levels.
func (cfg MultiLevelConfig) levelGPConfig(l, levels, d int) gp.Config {
	k := kernel.Kernel(kernel.NewSEARD(d))
	if l > 0 {
		k = kernel.NewNARGP(d)
	}
	g := gp.Config{
		Kernel: k, Restarts: cfg.Restarts, MaxIter: cfg.MaxIter,
		FixedNoise: cfg.FixedNoise, Inducing: cfg.Inducing,
		Workers: cfg.Workers, Span: cfg.Span,
	}
	if cfg.WarmStarts != nil && l < len(cfg.WarmStarts) && cfg.WarmStarts[l] != nil {
		g.WarmStart = cfg.WarmStarts[l]
		g.SkipTraining = cfg.SkipTraining && !(cfg.TrainTarget && l == levels-1)
	}
	return g
}

// FitMultiLevel trains the recursive model on per-level datasets ordered
// from cheapest (X[0], y[0]) to the target fidelity (X[L−1], y[L−1]).
func FitMultiLevel(X [][][]float64, y [][]float64, cfg MultiLevelConfig, rng *rand.Rand) (*MultiLevel, error) {
	if len(X) < 2 {
		return nil, errors.New("mfgp: multi-level model needs at least two levels")
	}
	if len(y) != len(X) {
		return nil, fmt.Errorf("mfgp: %d input levels but %d output levels", len(X), len(y))
	}
	for l := range X {
		if err := checkLevel(X[l], y[l], l); err != nil {
			return nil, err
		}
	}
	base, err := FitBase(X[0], y[0], len(X[0][0]), cfg, rng)
	if err != nil {
		return nil, fmt.Errorf("mfgp: level 0 fit: %w", err)
	}
	return FitOnBase(base, X[1:], y[1:], cfg, rng)
}

// FitBase trains the level-0 GP over d-dimensional inputs exactly as
// FitMultiLevel does (SE-ARD kernel, cfg.WarmStarts[0]); errors are gp.Fit's,
// unwrapped.
func FitBase(X [][]float64, y []float64, d int, cfg MultiLevelConfig, rng *rand.Rand) (*gp.Model, error) {
	return gp.Fit(X, y, cfg.levelGPConfig(0, 2, d), rng)
}

// FitOnBase stacks fused levels 1..L−1 on an already-trained level-0 GP;
// X[i], y[i] hold the data of level i+1 and cfg indexes levels from 0. The BO
// loop fits level 0 on its own — it is the surrogate of the cheap
// acquisition and carries the iteration alone when the fused levels fail —
// and builds the chain on top of it.
//
// For the paper's pair (one fused level) the errors name the high-fidelity
// level as the two-fidelity model always has, so the degradation reasons that
// K=2 runs log and checkpoint keep their wording.
func FitOnBase(base *gp.Model, X [][][]float64, y [][]float64, cfg MultiLevelConfig, rng *rand.Rand) (*MultiLevel, error) {
	if base == nil || len(X) == 0 {
		return nil, errors.New("mfgp: need a level-0 model and at least one fused level")
	}
	if len(y) != len(X) {
		return nil, fmt.Errorf("mfgp: %d input levels but %d output levels", len(X), len(y))
	}
	pair := len(X) == 1
	if pair && len(X[0]) == 0 {
		return nil, errors.New("mfgp: need a low-fidelity model and high-fidelity data")
	}
	d := base.Kernel().Dim()
	for i := range X {
		if err := checkLevel(X[i], y[i], i+1); err != nil {
			return nil, err
		}
		if len(X[i][0]) != d {
			return nil, fmt.Errorf("mfgp: level %d input dim %d != %d", i+1, len(X[i][0]), d)
		}
	}
	levels := len(X) + 1
	m := &MultiLevel{models: []*gp.Model{base}, dim: d}
	var ghNodes []float64
	switch cfg.Propagation {
	case GaussHermite:
		n := cfg.NumSamples
		if n <= 0 {
			n = 20
		}
		ghNodes, m.weights = stats.GaussHermite(n)
	case MonteCarlo:
	default:
		return nil, fmt.Errorf("mfgp: unknown propagation %d", cfg.Propagation)
	}
	// Each level is augmented with the previous level's fused posterior
	// mean. The propagation cloud for a level is drawn AFTER its GP is
	// trained — building the augmented design only reads the nodes of levels
	// below — so the rng stream reads level-0 fit, level-1 fit, level-1
	// cloud, level-2 fit, …
	for l := 1; l < levels; l++ {
		Xaug := make([][]float64, len(X[l-1]))
		for i, x := range X[l-1] {
			mu, _ := m.predictLevel(x, l-1)
			Xaug[i] = append(append(make([]float64, 0, d+1), x...), mu)
		}
		model, err := gp.Fit(Xaug, y[l-1], cfg.levelGPConfig(l, levels, d), rng)
		if err != nil {
			if pair {
				return nil, fmt.Errorf("mfgp: high-fidelity fit: %w", err)
			}
			return nil, fmt.Errorf("mfgp: level %d fit: %w", l, err)
		}
		m.models = append(m.models, model)
		switch cfg.Propagation {
		case MonteCarlo:
			n := cfg.NumSamples
			if n <= 0 {
				n = 50
			}
			zs := make([]float64, n)
			for i := range zs {
				zs[i] = rng.NormFloat64()
			}
			m.zs = append(m.zs, zs)
		case GaussHermite:
			m.zs = append(m.zs, ghNodes)
		}
	}
	return m, nil
}

// checkLevel validates one level's dataset.
func checkLevel(X [][]float64, y []float64, l int) error {
	if len(X) == 0 {
		return fmt.Errorf("mfgp: level %d has no data", l)
	}
	if len(X) != len(y) {
		return fmt.Errorf("mfgp: level %d has %d inputs but %d outputs", l, len(X), len(y))
	}
	return nil
}

// Dim returns the design-space dimensionality.
func (m *MultiLevel) Dim() int { return m.dim }

// Level returns the GP of fidelity level l (level 0 is over x, higher levels
// over the augmented input). Callers use it for per-level output scales and
// diagnostics; mutating it invalidates the chain.
func (m *MultiLevel) Level(l int) *gp.Model {
	if l < 0 || l >= len(m.models) {
		panic(fmt.Sprintf("mfgp: level %d out of range [0, %d)", l, len(m.models)))
	}
	return m.models[l]
}

// AppendLevel folds one observation (x, y) at level l into the chain with a
// rank-1 Cholesky update instead of a refit. For l > 0 the augmented
// coordinate is computed from the CURRENT lower chain and then frozen — the
// standard streaming approximation: later appends to lower levels sharpen
// future augmentations but do not retroactively move this row. The periodic
// full refit of the maintenance schedule rebuilds all augmentations exactly.
// Errors leave the chain unchanged.
func (m *MultiLevel) AppendLevel(l int, x []float64, y float64) error {
	if l < 0 || l >= len(m.models) {
		return fmt.Errorf("mfgp: append level %d out of range [0, %d)", l, len(m.models))
	}
	if len(x) != m.dim {
		return fmt.Errorf("mfgp: append point dim %d != %d", len(x), m.dim)
	}
	if l == 0 {
		return m.models[0].AppendObservation(x, y)
	}
	mu, _ := m.predictLevel(x, l-1)
	aug := append(append(make([]float64, 0, m.dim+1), x...), mu)
	return m.models[l].AppendObservation(aug, y)
}

// TruncateLevel drops level-l training rows beyond the first n — the
// retraction primitive for batch fantasy proposals. On the exact path it
// restores the pre-append posterior of that level bit for bit, provided no
// OTHER level was appended to in between (an append at a lower
// level changes the augmentation of subsequent upper-level appends, which
// truncation of this level alone cannot undo).
func (m *MultiLevel) TruncateLevel(l, n int) error {
	if l < 0 || l >= len(m.models) {
		return fmt.Errorf("mfgp: truncate level %d out of range [0, %d)", l, len(m.models))
	}
	return m.models[l].Truncate(n)
}

// Predict returns the fused posterior at the target (highest) fidelity.
func (m *MultiLevel) Predict(x []float64) (mean, variance float64) {
	return m.predictLevel(x, len(m.models)-1)
}

// PredictLevel returns the fused posterior of fidelity level l (0-based).
func (m *MultiLevel) PredictLevel(x []float64, l int) (mean, variance float64) {
	if l < 0 || l >= len(m.models) {
		panic(fmt.Sprintf("mfgp: level %d out of range [0, %d)", l, len(m.models)))
	}
	return m.predictLevel(x, l)
}

// predictLevel propagates the posterior through levels 1..l with common
// random numbers (MonteCarlo) or shared quadrature nodes (GaussHermite),
// collapsing to (mean, variance) at each step — the sequential
// approximation used by recursive NARGP implementations (eq. 10 for l = 1;
// the variance is the law of total variance over the propagation cloud).
// Every node of a cloud shares x, so each sampled step is one
// gp.PredictLatentAugmented call over the cloud mu + sd·z. An exact lower
// posterior (sd = 0) makes every node the mean, so that step is one
// plug-in prediction at (x, mu).
func (m *MultiLevel) predictLevel(x []float64, l int) (float64, float64) {
	mu, va := m.models[0].PredictLatent(x)
	if l == 0 {
		return mu, va
	}
	sc := m.getScratch()
	aug := sc.aug
	copy(aug, x)
	for lev := 1; lev <= l; lev++ {
		sd := math.Sqrt(math.Max(va, 0))
		if sd == 0 {
			aug[m.dim] = mu
			mu, va = m.models[lev].PredictLatent(aug)
			if va < 0 {
				va = 0
			}
			continue
		}
		zs := m.zs[lev-1]
		ts, mus, vas := sc.ts[:len(zs)], sc.mus[:len(zs)], sc.vas[:len(zs)]
		for i, z := range zs {
			ts[i] = mu + sd*z
		}
		m.models[lev].PredictLatentAugmented(x, ts, mus, vas)
		var sumW, meanAcc, m2Acc float64
		for i := range zs {
			w := 1.0 / float64(len(zs))
			if m.weights != nil {
				w = m.weights[i]
			}
			mi, vi := mus[i], vas[i]
			sumW += w
			meanAcc += w * mi
			m2Acc += w * (vi + mi*mi)
		}
		mu = meanAcc / sumW
		va = m2Acc/sumW - mu*mu
		if va < 0 {
			va = 0
		}
	}
	m.scratch.Put(sc)
	return mu, va
}
