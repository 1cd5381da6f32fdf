package circuit

import (
	"math"
	"math/cmplx"
)

// Goertzel returns the complex DFT coefficient of samples at frequency f0,
// assuming uniform sampling with timestep dt over an integer number of
// periods. Amplitude of the sinusoidal component = 2·|X|/N.
func Goertzel(samples []float64, dt, f0 float64) complex128 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	w := 2 * math.Pi * f0 * dt
	cw, sw := math.Cos(w), math.Sin(w)
	coeff := 2 * cw
	var s0, s1, s2 float64
	for _, v := range samples {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	re := s1*cw - s2
	im := s1 * sw
	return complex(re, -im)
}

// HarmonicAmplitude returns the amplitude of the k-th harmonic of the
// fundamental f0 in the sample window (2·|DFT|/N).
func HarmonicAmplitude(samples []float64, dt, f0 float64, k int) float64 {
	n := float64(len(samples))
	if n == 0 {
		return 0
	}
	return 2 * cmplx.Abs(Goertzel(samples, dt, f0*float64(k))) / n
}

// THD returns the total harmonic distortion of the signal with fundamental
// f0, using harmonics 2..maxHarmonic:
//
//	THD = √(Σ_k≥2 A_k²) / A_1.
//
// The result is a ratio; multiply by 100 for percent or use THDdB.
func THD(samples []float64, dt, f0 float64, maxHarmonic int) float64 {
	a1 := HarmonicAmplitude(samples, dt, f0, 1)
	if a1 == 0 {
		return math.Inf(1)
	}
	s := 0.0
	for k := 2; k <= maxHarmonic; k++ {
		a := HarmonicAmplitude(samples, dt, f0, k)
		s += a * a
	}
	return math.Sqrt(s) / a1
}

// THDdB returns the THD expressed in dB (20·log10 of the ratio).
func THDdB(samples []float64, dt, f0 float64, maxHarmonic int) float64 {
	return 20 * math.Log10(THD(samples, dt, f0, maxHarmonic))
}

// Mean returns the average of the samples.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// MinMax returns the extrema of the samples.
func MinMax(samples []float64) (lo, hi float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	lo, hi = samples[0], samples[0]
	for _, v := range samples[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// DBm converts a power in watts to dBm.
func DBm(watts float64) float64 { return 10 * math.Log10(watts/1e-3) }
