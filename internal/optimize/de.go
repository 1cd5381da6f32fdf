package optimize

import (
	"math"
	"math/rand"

	"repro/internal/stats"
)

// DE/rand/1/bin constants: the differential weight and the crossover rate.
const (
	deF  = 0.7
	deCR = 0.9
)

// DEConfig tunes the differential-evolution engine (DE/rand/1/bin).
type DEConfig struct {
	PopSize int // population size (default 10·d, min 8)
	MaxGen  int // maximum generations (default 100)
	// MaxEvals, when positive, stops evolution once the total number of
	// objective evaluations (including the initial population) reaches it.
	MaxEvals int
}

func (c *DEConfig) defaults(d int) {
	if c.PopSize <= 0 {
		c.PopSize = 10 * d
		if c.PopSize < 8 {
			c.PopSize = 8
		}
	}
	if c.MaxGen <= 0 {
		c.MaxGen = 100
	}
}

// DE minimizes f over the box with DE/rand/1/bin and returns the best point
// and value found. It is the engine of the paper's DE baseline.
func DE(rng *rand.Rand, f func([]float64) float64, box Box, cfg DEConfig) ([]float64, float64) {
	d := box.Dim()
	cfg.defaults(d)
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}
	budgetLeft := func() bool { return cfg.MaxEvals <= 0 || evals < cfg.MaxEvals }

	pop := stats.LatinHypercube(rng, box.Lo, box.Hi, cfg.PopSize)
	fit := make([]float64, cfg.PopSize)
	bestX, bestF := pop[0], math.Inf(1)
	for i, x := range pop {
		if !budgetLeft() {
			fit[i] = math.Inf(1) // unevaluated tail loses every selection
			continue
		}
		fit[i] = eval(x)
		if fit[i] < bestF {
			bestX, bestF = x, fit[i]
		}
	}

	trial := make([]float64, d)
	for gen := 0; gen < cfg.MaxGen && budgetLeft(); gen++ {
		for i := 0; i < cfg.PopSize && budgetLeft(); i++ {
			a, b, c := distinctThree(rng, cfg.PopSize, i)
			jRand := rng.Intn(d)
			for j := 0; j < d; j++ {
				if j == jRand || rng.Float64() < deCR {
					trial[j] = pop[a][j] + deF*(pop[b][j]-pop[c][j])
					// Reflect out-of-box coordinates back inside.
					if trial[j] < box.Lo[j] {
						trial[j] = box.Lo[j] + rng.Float64()*(pop[i][j]-box.Lo[j])
					} else if trial[j] > box.Hi[j] {
						trial[j] = box.Hi[j] - rng.Float64()*(box.Hi[j]-pop[i][j])
					}
				} else {
					trial[j] = pop[i][j]
				}
			}
			ft := eval(trial)
			if ft <= fit[i] {
				copy(pop[i], trial)
				fit[i] = ft
				if ft < bestF {
					bestF = ft
					bestX = append([]float64(nil), trial...)
				}
			}
		}
	}
	return append([]float64(nil), bestX...), bestF
}

// distinctThree draws three distinct population indices, all different from
// excl.
func distinctThree(rng *rand.Rand, n, excl int) (int, int, int) {
	pick := func(avoid ...int) int {
	retry:
		for {
			v := rng.Intn(n)
			for _, a := range avoid {
				if v == a {
					continue retry
				}
			}
			return v
		}
	}
	a := pick(excl)
	b := pick(excl, a)
	c := pick(excl, a, b)
	return a, b, c
}
