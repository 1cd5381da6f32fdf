package optimize

import (
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// The §4.1 start-point shares: mspFracHigh of the starting points are
// scattered in a Gaussian ball around the high-fidelity incumbent,
// mspFracLow around the low-fidelity incumbent, and the remainder uniformly
// over the box. Each ball's standard deviation is mspSigmaFrac of the box
// width per coordinate.
const (
	mspFracHigh  = 0.4
	mspFracLow   = 0.1
	mspSigmaFrac = 0.02
)

// MSPConfig configures the multiple-starting-point maximizer of §4.1.
type MSPConfig struct {
	Starts    int // number of starting points (default 20)
	LocalIter int // local refinement iterations per start (default 60)
	// Extra starting points appended verbatim (clipped to the box). The BO
	// loop passes the low-fidelity acquisition optimum here (Algorithm 1,
	// line 6: the high-fidelity acquisition is optimized "based on x*_l").
	Extra [][]float64
	// Stats, when non-nil, is filled with start/convergence bookkeeping of
	// this maximization. nil (the default) is a zero-allocation no-op.
	Stats *MSPStats
	// Span, when non-nil, parents an "optimize.msp" trace span around the
	// maximization. nil is a zero-allocation no-op.
	Span *telemetry.Span
}

// MSPStats records what one MaximizeMSP run did: how many local searches
// started, how many diverged to a non-finite value (and were discarded by
// the argmax), which start won, and the winning acquisition value. The MFBO
// loop surfaces these in its per-iteration telemetry events so a stuck MSP
// search is visible at runtime.
type MSPStats struct {
	Starts    int     // local searches launched (incumbent/uniform/Extra)
	Diverged  int     // starts whose refined value was NaN/±Inf
	BestStart int     // index of the winning start (-1 = total-divergence fallback)
	BestF     float64 // maximized objective value
}

func (c *MSPConfig) defaults() {
	if c.Starts <= 0 {
		c.Starts = 20
	}
	if c.LocalIter <= 0 {
		c.LocalIter = 60
	}
}

// MaximizeMSP maximizes f over the box using the multiple-starting-point
// strategy. incumbentHigh and incumbentLow may be nil when no incumbent is
// known yet (their start-point shares then fall back to uniform sampling).
// It returns the best point found and its objective value.
//
// Local searches from all starts run on up to workers goroutines (0 =
// default, 1 = serial; see parallel.Workers), so f must be safe for
// concurrent calls when workers != 1 — every surrogate posterior in this
// library is. Each local search hands f one reused buffer (MinimizeInBox),
// so f must not retain its argument. Start points are drawn serially before
// the fan-out, each start's refinement is a pure function of its starting
// point, and the argmax reduction walks results in start order with a strict
// comparison, so ties break toward the lowest start index and the outcome is
// independent of the worker count. Non-finite local-search results (a diverged L-BFGS run)
// are discarded so they can never win the argmax; if every start diverges,
// the raw objective at the first start is returned as a safe fallback.
func MaximizeMSP(rng *rand.Rand, f func([]float64) float64, box Box,
	incumbentHigh, incumbentLow []float64, cfg MSPConfig, workers int) ([]float64, float64) {
	cfg.defaults()
	span := cfg.Span.Child("optimize.msp")
	defer span.End()
	starts := mspStarts(rng, box, incumbentHigh, incumbentLow, cfg)
	span.Attr("starts", float64(len(starts)))
	neg := func(x []float64) float64 { return -f(x) }
	type local struct {
		x                     []float64
		f                     float64 // maximized objective value
		valueEvals, gradEvals int
	}
	results := make([]local, len(starts))
	parallel.ForEach(parallel.Workers(workers), len(starts), func(i int) {
		r := MinimizeInBox(neg, box, starts[i], LBFGSConfig{MaxIter: cfg.LocalIter})
		results[i] = local{x: r.X, f: -r.F, valueEvals: r.ValueEvals, gradEvals: r.GradEvals}
	})
	var bestX []float64
	bestF := math.Inf(-1)
	bestIdx, diverged := -1, 0
	valueEvals, gradEvals := 0, 0
	for i, r := range results {
		valueEvals += r.valueEvals
		gradEvals += r.gradEvals
		if math.IsNaN(r.f) || math.IsInf(r.f, 0) {
			diverged++
			continue
		}
		if bestX == nil || r.f > bestF {
			bestF = r.f
			bestX = r.x
			bestIdx = i
		}
	}
	if bestX == nil {
		// Every local search diverged: fall back to the first start itself.
		// This is also the only raw (pre-refinement) objective evaluation —
		// the common path no longer pays the duplicated f(starts[0]) call
		// that the local search from starts[0] subsumes.
		bestX = box.Clip(starts[0])
		bestF = f(bestX)
	}
	if cfg.Stats != nil {
		*cfg.Stats = MSPStats{Starts: len(starts), Diverged: diverged, BestStart: bestIdx, BestF: bestF}
	}
	span.Attr("diverged", float64(diverged))
	span.Attr("best_f", bestF)
	span.Attr("value_evals", float64(valueEvals))
	span.Attr("grad_evals", float64(gradEvals))
	return bestX, bestF
}

// mspStarts builds the §4.1 start-point set: mspFracHigh near the
// high-fidelity incumbent, mspFracLow near the low-fidelity incumbent,
// remainder uniform.
func mspStarts(rng *rand.Rand, box Box, incHigh, incLow []float64, cfg MSPConfig) [][]float64 {
	nHigh, nLow := 0, 0
	if incHigh != nil {
		nHigh = int(mspFracHigh * float64(cfg.Starts))
	}
	if incLow != nil {
		nLow = int(mspFracLow * float64(cfg.Starts))
	}
	nUniform := cfg.Starts - nHigh - nLow
	pts := make([][]float64, 0, cfg.Starts)
	if nHigh > 0 {
		pts = append(pts, stats.GaussianBall(rng, incHigh, box.Lo, box.Hi, mspSigmaFrac, nHigh)...)
	}
	if nLow > 0 {
		pts = append(pts, stats.GaussianBall(rng, incLow, box.Lo, box.Hi, mspSigmaFrac, nLow)...)
	}
	if nUniform > 0 {
		pts = append(pts, stats.LatinHypercube(rng, box.Lo, box.Hi, nUniform)...)
	}
	for _, e := range cfg.Extra {
		pts = append(pts, box.Clip(e))
	}
	return pts
}
