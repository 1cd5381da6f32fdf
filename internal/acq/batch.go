package acq

import "repro/internal/parallel"

// EvalBatch evaluates a scalar acquisition over a candidate grid on up to
// workers goroutines (0 = default, 1 = serial). Slot i receives exactly
// f(xs[i]) — the output is bit-identical to the serial loop for any worker
// count as long as f is a pure function, which every acquisition built from
// the library's surrogate posteriors is. f must be safe for concurrent calls
// when workers != 1.
func EvalBatch(workers int, f func([]float64) float64, xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	parallel.ForEach(parallel.Workers(workers), len(xs), func(i int) {
		out[i] = f(xs[i])
	})
	return out
}
