// Package linalg provides the dense linear-algebra kernel used by the
// Gaussian-process and circuit-simulation layers: column-major-free dense
// matrices, Cholesky and LU factorizations, triangular solves, and a Jacobi
// symmetric eigensolver that the tests use as a reference.
//
// The package is deliberately small and allocation-conscious rather than
// general: matrices are dense float64 in row-major order, and every routine
// documents whether it aliases or copies its inputs.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatrixFrom builds an r×c matrix from row-major data. The slice is used
// directly (not copied).
func NewMatrixFrom(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d != %d×%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i (aliases the underlying data).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	d := make([]float64, len(m.Data))
	copy(d, m.Data)
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: d}
}

// T returns a newly allocated transpose.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m·b as a new matrix.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: mul shape mismatch %d×%d · %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Data[i*m.Cols : (i+1)*m.Cols]
		oi := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			bk := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bkj := range bk {
				oi[j] += mik * bkj
			}
		}
	}
	return out
}

// MulVec returns m·v as a new vector.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: mulvec shape mismatch %d×%d · %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, r := range row {
			s += r * v[j]
		}
		out[i] = s
	}
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	// Two-pass scaling avoids overflow for large magnitudes.
	mx := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		r := x / mx
		s += r * r
	}
	return mx * math.Sqrt(s)
}

// SubVec returns a−b as a new vector.
func SubVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("linalg: subvec length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// SameBits reports whether a and b have equal length and bit-identical
// entries (math.Float64bits), the key comparison of a same-point memo: NaNs
// with equal payloads match, and 0 and −0 differ.
func SameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
