// Package baselines implements the three comparison algorithms of the
// paper's §5: WEIBO (single-fidelity GP Bayesian optimization with weighted
// expected improvement, Lyu et al. 2018), GASPAD (surrogate-assisted
// evolutionary search prescreened by a lower confidence bound, Liu et al.
// 2014) and plain differential evolution (Liu et al. 2009). All three
// evaluate exclusively at high fidelity; their results share the
// core.Result type so the experiment harness treats every algorithm
// uniformly.
package baselines

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fidelity"
	"repro/internal/problem"
)

// WEIBO runs single-fidelity constrained Bayesian optimization with the
// weighted expected improvement acquisition (eq. 6), the eq. 13 feasibility
// bootstrap and MSP maximization. It is the core engine on a one-rung
// fidelity ladder, which simulates only the problem's target fidelity, so
// the comparison with the multi-fidelity run isolates fusion from
// implementation differences. cfg.InitHigh is the Latin-hypercube design
// size and must be below cfg.Budget. cfg.Ladder is overridden; InitLow,
// InitMid, Gamma, Propagation and NumSamples only shape cheaper rungs and
// the fused chain, so they have no effect.
func WEIBO(p problem.Problem, cfg core.Config, rng *rand.Rand) (*core.Result, error) {
	if float64(cfg.InitHigh) >= cfg.Budget {
		return nil, fmt.Errorf("baselines: WEIBO InitHigh %d must be below Budget %v", cfg.InitHigh, cfg.Budget)
	}
	ladder, err := fidelity.FromCosts([]float64{1})
	if err != nil {
		return nil, err
	}
	cfg.Ladder = &ladder
	return core.Optimize(p, cfg, rng)
}
