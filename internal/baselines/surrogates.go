package baselines

import (
	"fmt"
	"math/rand"

	"repro/internal/gp"
	"repro/internal/kernel"
)

// surrogates maintains the per-output exact SE-ARD GP models of a
// single-fidelity baseline across iterations:
//
//   - full-refit iterations retrain hyperparameters (warm-started from the
//     previous fit) and rebuild the factorization;
//   - the other iterations re-factorize under the frozen hyperparameters
//     (gp.Config.SkipTraining).
type surrogates struct {
	dim        int
	nOut       int
	restarts   int
	maxIter    int
	fixedNoise *float64
	workers    int

	warm [][]float64
}

func newSurrogates(dim, nOut, restarts, maxIter int, fixedNoise *float64, workers int) *surrogates {
	return &surrogates{
		dim: dim, nOut: nOut,
		restarts: restarts, maxIter: maxIter,
		fixedNoise: fixedNoise, workers: workers,
		warm: make([][]float64, nOut),
	}
}

// models returns one trained model per output covering all rows of (X, Y).
func (s *surrogates) models(X [][]float64, Y [][]float64, fullRefit bool, rng *rand.Rand) ([]*gp.Model, error) {
	column := func(k int) []float64 {
		col := make([]float64, len(Y))
		for i, row := range Y {
			col[i] = row[k]
		}
		return col
	}
	ms := make([]*gp.Model, s.nOut)
	for k := 0; k < s.nOut; k++ {
		m, err := gp.Fit(X, column(k), gp.Config{
			Kernel:       kernel.NewSEARD(s.dim),
			Restarts:     s.restarts,
			MaxIter:      s.maxIter,
			FixedNoise:   s.fixedNoise,
			WarmStart:    s.warm[k],
			SkipTraining: !fullRefit && s.warm[k] != nil,
			Workers:      s.workers,
		}, rng)
		if err != nil {
			return nil, fmt.Errorf("output %d: %w", k, err)
		}
		s.warm[k] = m.Hyper()
		ms[k] = m
	}
	return ms, nil
}
