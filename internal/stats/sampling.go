package stats

import (
	"fmt"
	"math/rand"
)

// UniformInBox draws n points uniformly in the axis-aligned box [lo, hi]^d.
// Each returned point is a fresh slice of length d.
func UniformInBox(rng *rand.Rand, lo, hi []float64, n int) [][]float64 {
	d := len(lo)
	if len(hi) != d {
		panic(fmt.Sprintf("stats: box bounds length mismatch %d vs %d", d, len(hi)))
	}
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := 0; j < d; j++ {
			p[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
		pts[i] = p
	}
	return pts
}

// LatinHypercube draws an n-point Latin hypercube design in [lo, hi]^d: each
// dimension is partitioned into n equal strata, each stratum sampled exactly
// once, with independent random permutations per dimension. LHS is the
// standard initialization for the BO training sets in the paper.
func LatinHypercube(rng *rand.Rand, lo, hi []float64, n int) [][]float64 {
	d := len(lo)
	if len(hi) != d {
		panic(fmt.Sprintf("stats: box bounds length mismatch %d vs %d", d, len(hi)))
	}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
	}
	perm := make([]int, n)
	for j := 0; j < d; j++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for i := 0; i < n; i++ {
			u := (float64(perm[i]) + rng.Float64()) / float64(n)
			pts[i][j] = lo[j] + u*(hi[j]-lo[j])
		}
	}
	return pts
}

// GaussianBall draws n points from N(center, sigma²·I) clipped to [lo, hi].
// It implements the paper's §4.1 strategy of seeding a fraction of the
// acquisition-maximization starting points around the current incumbents.
func GaussianBall(rng *rand.Rand, center, lo, hi []float64, sigmaFrac float64, n int) [][]float64 {
	d := len(center)
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := 0; j < d; j++ {
			sigma := sigmaFrac * (hi[j] - lo[j])
			v := center[j] + sigma*rng.NormFloat64()
			if v < lo[j] {
				v = lo[j]
			} else if v > hi[j] {
				v = hi[j]
			}
			p[j] = v
		}
		pts[i] = p
	}
	return pts
}
