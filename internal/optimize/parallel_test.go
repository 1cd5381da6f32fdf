package optimize

import (
	"math"
	"math/rand"
	"testing"
)

// multimodal is a 2-D surface with many local maxima — the worst case for a
// worker-count-dependent argmax.
func multimodal(x []float64) float64 {
	return math.Sin(5*x[0])*math.Cos(4*x[1]) - 0.1*(x[0]*x[0]+x[1]*x[1])
}

// TestMaximizeMSPParallelDeterminism pins the acquisition maximizer: the
// selected optimum must be bit-identical for Workers=1 and Workers=8 across
// seeds, including the tie-breaking among equally good local optima.
func TestMaximizeMSPParallelDeterminism(t *testing.T) {
	box := NewBox([]float64{-2, -2}, []float64{2, 2})
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		run := func(workers int) ([]float64, float64) {
			rng := rand.New(rand.NewSource(seed))
			return MaximizeMSP(rng, multimodal, box, []float64{0.3, -0.2}, nil,
				MSPConfig{Starts: 12, LocalIter: 30}, workers)
		}
		x1, f1 := run(1)
		x8, f8 := run(8)
		if math.Float64bits(f1) != math.Float64bits(f8) {
			t.Fatalf("seed %d: objective differs: %v vs %v", seed, f1, f8)
		}
		for j := range x1 {
			if math.Float64bits(x1[j]) != math.Float64bits(x8[j]) {
				t.Fatalf("seed %d: x[%d] differs: %v vs %v", seed, j, x1[j], x8[j])
			}
		}
	}
}

// TestMaximizeMSPAllDivergedFallsBack covers the non-finite guard: when every
// local search produces NaN, the maximizer must still return an in-box point
// (the clipped first start) instead of a NaN coordinate vector.
func TestMaximizeMSPAllDivergedFallsBack(t *testing.T) {
	box := NewBox([]float64{0, 0}, []float64{1, 1})
	nan := func(x []float64) float64 { return math.NaN() }
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewSource(6))
		x, _ := MaximizeMSP(rng, nan, box, nil, nil,
			MSPConfig{Starts: 5, LocalIter: 10}, workers)
		if len(x) != 2 || !box.Contains(x) {
			t.Fatalf("workers=%d: fallback point out of box: %v", workers, x)
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("workers=%d: non-finite coordinate %d: %v", workers, j, v)
			}
		}
	}
}
