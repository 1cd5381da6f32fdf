// Package stats provides the probability and sampling utilities shared by the
// Gaussian-process stack: standard-normal density and CDF, descriptive
// statistics for experiment tables, Latin-hypercube design sampling, and
// Gauss–Hermite quadrature nodes for deterministic uncertainty propagation.
package stats

import "math"

const (
	invSqrt2   = 1 / math.Sqrt2
	invSqrt2Pi = 1 / (math.Sqrt2 * math.SqrtPi)
)

// NormPDF returns the density of the standard normal distribution at x.
func NormPDF(x float64) float64 {
	return invSqrt2Pi * math.Exp(-0.5*x*x)
}

// NormCDF returns Φ(x), the standard normal CDF.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x*invSqrt2)
}
