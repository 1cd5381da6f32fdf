package stats

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample, matching the rows the
// paper reports in Tables 1 and 2 (mean/median/best/worst plus spread).
type Summary struct {
	N            int
	Mean, Median float64
	Min, Max     float64
	Std          float64 // sample standard deviation (n−1)
	Q1, Q3       float64 // quartiles (linear interpolation)
}

// Summarize computes descriptive statistics of xs. It panics on an empty
// sample, which always indicates a harness bug.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: summarize of empty sample")
	}
	s := Summary{N: len(xs)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(len(sorted))
	s.Median = Quantile(sorted, 0.5)
	s.Q1 = Quantile(sorted, 0.25)
	s.Q3 = Quantile(sorted, 0.75)
	if len(sorted) > 1 {
		ss := 0.0
		for _, x := range sorted {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(sorted)-1))
	}
	return s
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of a sorted sample using
// linear interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
