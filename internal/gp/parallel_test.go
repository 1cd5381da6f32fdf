package gp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/stats"
)

// trainSet builds a deterministic smooth dataset on [0,1]^d.
func trainSet(seed int64, n, d int) (X [][]float64, y []float64, lo, hi []float64) {
	rng := rand.New(rand.NewSource(seed))
	lo = make([]float64, d)
	hi = make([]float64, d)
	for j := range hi {
		hi[j] = 1
	}
	X = stats.LatinHypercube(rng, lo, hi, n)
	y = make([]float64, n)
	for i, x := range X {
		for j, v := range x {
			y[i] += math.Sin(3*v + float64(j))
		}
	}
	return X, y, lo, hi
}

// TestFitParallelDeterminism is the tentpole guarantee for surrogate
// training: concurrent L-BFGS restarts must produce bit-identical
// hyperparameters and predictions for every worker count, across seeds,
// sizes and restart counts.
func TestFitParallelDeterminism(t *testing.T) {
	cases := []struct {
		name     string
		seed     int64
		n, d     int
		restarts int
	}{
		{"small-2d", 1, 20, 2, 3},
		{"medium-3d", 2, 32, 3, 4},
		{"many-restarts", 3, 16, 2, 6},
		{"single-restart", 4, 24, 4, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			X, y, lo, hi := trainSet(tc.seed, tc.n, tc.d)
			fit := func(workers int) *Model {
				m, err := Fit(X, y, Config{
					Kernel:   kernel.NewSEARD(tc.d),
					Restarts: tc.restarts,
					MaxIter:  30,
					Workers:  workers,
				}, rand.New(rand.NewSource(tc.seed+100)))
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			m1 := fit(1)
			m8 := fit(8)
			h1, h8 := m1.Hyper(), m8.Hyper()
			if len(h1) != len(h8) {
				t.Fatalf("hyper lengths differ: %d vs %d", len(h1), len(h8))
			}
			for i := range h1 {
				if math.Float64bits(h1[i]) != math.Float64bits(h8[i]) {
					t.Fatalf("hyper[%d] differs: %v (serial) vs %v (8 workers)", i, h1[i], h8[i])
				}
			}
			probes := stats.LatinHypercube(rand.New(rand.NewSource(tc.seed+200)), lo, hi, 25)
			for pi, x := range probes {
				mu1, v1 := m1.PredictLatent(x)
				mu8, v8 := m8.PredictLatent(x)
				if math.Float64bits(mu1) != math.Float64bits(mu8) ||
					math.Float64bits(v1) != math.Float64bits(v8) {
					t.Fatalf("probe %d: (%v,%v) vs (%v,%v)", pi, mu1, v1, mu8, v8)
				}
			}
		})
	}
}

// TestPredictLatentAllocationLean asserts the reused scratch path: after
// warmup, a posterior evaluation must not allocate per call. The scratch is
// the model's own, not a sync.Pool's, so this holds under -race too.
func TestPredictLatentAllocationLean(t *testing.T) {
	X, y, lo, hi := trainSet(11, 24, 3)
	m, err := Fit(X, y, Config{
		Kernel: kernel.NewSEARD(3), MaxIter: 30,
	}, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	x := stats.LatinHypercube(rand.New(rand.NewSource(13)), lo, hi, 1)[0]
	m.PredictLatent(x) // warm the pool
	allocs := testing.AllocsPerRun(200, func() { m.PredictLatent(x) })
	if allocs > 1 {
		t.Fatalf("PredictLatent allocates %.1f objects per call; want ≤ 1", allocs)
	}
}
