package kernel

import (
	"fmt"
	"math"
)

// SEARD is the squared-exponential (RBF) kernel with automatic relevance
// determination, eq. (2) of the paper:
//
//	k(x, x') = σ_f² · exp(−½ Σ_i (x_i − x'_i)² / l_i²).
//
// Hyperparameters (log-space): [log σ_f, log l_1, …, log l_d].
//
// Every product that feeds a sum or difference is rounded first, with an
// explicit float64 conversion, so no platform fuses it into an FMA: the
// profile's per-pair and batch methods repeat these roundings exactly.
type SEARD struct {
	dim      int
	logAmp   float64   // log σ_f
	logScale []float64 // log l_i
}

// NewSEARD returns an SE-ARD kernel for d-dimensional inputs with unit
// amplitude and unit length scales.
func NewSEARD(d int) *SEARD {
	if d < 1 {
		panic(fmt.Sprintf("kernel: SEARD dimension %d < 1", d))
	}
	return &SEARD{dim: d, logScale: make([]float64, d)}
}

// Dim implements Kernel.
func (k *SEARD) Dim() int { return k.dim }

// NumHyper implements Kernel.
func (k *SEARD) NumHyper() int { return 1 + k.dim }

// Hyper implements Kernel.
func (k *SEARD) Hyper(dst []float64) []float64 {
	dst = append(dst, k.logAmp)
	return append(dst, k.logScale...)
}

// SetHyper implements Kernel.
func (k *SEARD) SetHyper(src []float64) int {
	k.logAmp = src[0]
	copy(k.logScale, src[1:1+k.dim])
	return 1 + k.dim
}

// Eval implements Kernel.
func (k *SEARD) Eval(x1, x2 []float64) float64 {
	k.checkDim(x1, x2)
	q := 0.0
	for i := 0; i < k.dim; i++ {
		d := (x1[i] - x2[i]) * math.Exp(-k.logScale[i])
		q += float64(d * d)
	}
	return math.Exp(2*k.logAmp - float64(0.5*q))
}

// EvalGrad implements Kernel.
func (k *SEARD) EvalGrad(x1, x2 []float64, grad []float64) float64 {
	k.checkDim(x1, x2)
	q := 0.0
	scaled := make([]float64, k.dim)
	for i := 0; i < k.dim; i++ {
		d := (x1[i] - x2[i]) * math.Exp(-k.logScale[i])
		scaled[i] = float64(d * d)
		q += scaled[i]
	}
	v := math.Exp(2*k.logAmp - float64(0.5*q))
	grad[0] = 2 * v // ∂k/∂log σ_f
	for i := 0; i < k.dim; i++ {
		grad[1+i] = v * scaled[i] // ∂k/∂log l_i = k·Δ_i²/l_i²
	}
	return v
}

// Bounds implements Kernel. Amplitude in [e⁻⁶, e⁶]; length scales in
// [e⁻⁵, e⁵] — generous ranges for inputs standardized to unit scale.
func (k *SEARD) Bounds(lo, hi []float64) ([]float64, []float64) {
	lo = append(lo, -6)
	hi = append(hi, 6)
	for i := 0; i < k.dim; i++ {
		lo = append(lo, -5)
		hi = append(hi, 5)
	}
	return lo, hi
}

// Clone implements Kernel.
func (k *SEARD) Clone() Kernel {
	return &SEARD{dim: k.dim, logAmp: k.logAmp, logScale: append([]float64(nil), k.logScale...)}
}

func (k *SEARD) checkDim(x1, x2 []float64) {
	if len(x1) != k.dim || len(x2) != k.dim {
		panic(fmt.Sprintf("kernel: SEARD input dims %d/%d != %d", len(x1), len(x2), k.dim))
	}
}
