package mfgp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// fusionSet builds a deterministic two-fidelity dataset on [0,1]^d.
func fusionSet(seed int64, nl, nh, d int) (Xl [][]float64, yl []float64, Xh [][]float64, yh []float64, lo, hi []float64) {
	rng := rand.New(rand.NewSource(seed))
	lo = make([]float64, d)
	hi = make([]float64, d)
	for j := range hi {
		hi[j] = 1
	}
	f := func(x []float64, scale, shift float64) float64 {
		s := 0.0
		for j, v := range x {
			s += math.Sin(3*v + float64(j))
		}
		return scale*s + shift
	}
	Xl = stats.LatinHypercube(rng, lo, hi, nl)
	yl = make([]float64, nl)
	for i, x := range Xl {
		yl[i] = f(x, 1, 0)
	}
	Xh = stats.LatinHypercube(rng, lo, hi, nh)
	yh = make([]float64, nh)
	for i, x := range Xh {
		yh[i] = f(x, 1.15, 0.05)
	}
	return Xl, yl, Xh, yh, lo, hi
}

// TestFusedPredictBatchParallelDeterminism is the prediction-side guarantee
// for the fused chain: training with any worker count must give bit-identical
// predictions over a whole grid, across propagation schemes.
func TestFusedPredictBatchParallelDeterminism(t *testing.T) {
	cases := []struct {
		name string
		prop Propagation
	}{
		{"gauss-hermite", GaussHermite},
		{"monte-carlo", MonteCarlo},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			Xl, yl, Xh, yh, lo, hi := fusionSet(21, 40, 12, 3)
			grid := stats.LatinHypercube(rand.New(rand.NewSource(22)), lo, hi, 48)
			fit := func(workers int) *MultiLevel {
				m, err := Fit(Xl, yl, Xh, yh, MultiLevelConfig{
					MaxIter: 30, Propagation: tc.prop, NumSamples: 10, Workers: workers,
				}, rand.New(rand.NewSource(23)))
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			m1 := fit(1)
			m8 := fit(8)
			for i, x := range grid {
				mu1, v1 := m1.Predict(x)
				mu8, v8 := m8.Predict(x)
				if math.Float64bits(mu1) != math.Float64bits(mu8) ||
					math.Float64bits(v1) != math.Float64bits(v8) {
					t.Fatalf("point %d: (%v,%v) vs (%v,%v)", i, mu1, v1, mu8, v8)
				}
			}
		})
	}
}

// TestPredictAllocationLean pins the allocation discipline of fused
// prediction: after warmup, Predict on a two-level model and PredictLevel on
// every level of a three-level chain allocate nothing, for every propagation
// mode, thanks to the pooled scratch of mfgp and gp.
func TestPredictAllocationLean(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race runtime defeats sync.Pool reuse; alloc counts only hold without -race")
	}
	Xl, yl, Xh, yh, lo, hi := fusionSet(31, 30, 10, 3)
	X3, y3 := chainSet(34, []int{30, 14, 8}, 3)
	for _, tc := range []struct {
		name string
		prop Propagation
	}{{"gauss-hermite", GaussHermite}, {"monte-carlo", MonteCarlo}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := MultiLevelConfig{MaxIter: 30, Propagation: tc.prop, NumSamples: 10}
			m, err := Fit(Xl, yl, Xh, yh, cfg, rand.New(rand.NewSource(32)))
			if err != nil {
				t.Fatal(err)
			}
			x := stats.LatinHypercube(rand.New(rand.NewSource(33)), lo, hi, 1)[0]
			m.Predict(x) // warm the scratch pools
			if allocs := testing.AllocsPerRun(200, func() { m.Predict(x) }); allocs != 0 {
				t.Fatalf("Predict allocates %.1f objects per call; want 0", allocs)
			}
			chain, err := FitMultiLevel(X3, y3, cfg, rand.New(rand.NewSource(35)))
			if err != nil {
				t.Fatal(err)
			}
			for l := 0; l < len(chain.models); l++ {
				chain.PredictLevel(x, l)
				if allocs := testing.AllocsPerRun(200, func() { chain.PredictLevel(x, l) }); allocs != 0 {
					t.Fatalf("K=3 PredictLevel(x, %d) allocates %.1f objects per call; want 0", l, allocs)
				}
			}
		})
	}
}
