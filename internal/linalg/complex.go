package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// CMatrix is a dense row-major complex matrix, used by the circuit
// simulator's small-signal (AC) analysis.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewCMatrix returns a zeroed r×c complex matrix.
func NewCMatrix(r, c int) *CMatrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %d×%d", r, c))
	}
	return &CMatrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// At returns element (i, j).
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *CMatrix) Add(i, j int, v complex128) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *CMatrix) Clone() *CMatrix {
	d := make([]complex128, len(m.Data))
	copy(d, m.Data)
	return &CMatrix{Rows: m.Rows, Cols: m.Cols, Data: d}
}

// CLU is a row-pivoted LU factorization of a complex square matrix.
type CLU struct {
	lu    *CMatrix
	pivot []int
}

// NewCLU factorizes the square complex matrix a with partial pivoting
// (by magnitude). a is not modified.
func NewCLU(a *CMatrix) (*CLU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: CLU of non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	pivot := make([]int, n)
	for k := 0; k < n; k++ {
		p := k
		mx := cmplx.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(lu.At(i, k)); v > mx {
				mx, p = v, i
			}
		}
		if mx == 0 || math.IsNaN(mx) {
			return nil, ErrSingular
		}
		pivot[k] = p
		if p != k {
			rk := lu.Data[k*n : (k+1)*n]
			rp := lu.Data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		inv := 1 / lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) * inv
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri := lu.Data[i*n+k+1 : (i+1)*n]
			rk := lu.Data[k*n+k+1 : (k+1)*n]
			for j := range ri {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &CLU{lu: lu, pivot: pivot}, nil
}

// SolveVec solves A·x = b, returning x as a new vector.
func (f *CLU) SolveVec(b []complex128) []complex128 {
	n := f.lu.Rows
	if len(b) != n {
		panic(fmt.Sprintf("linalg: CLU solve length %d != %d", len(b), n))
	}
	x := make([]complex128, n)
	copy(x, b)
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	for i := 1; i < n; i++ {
		row := f.lu.Data[i*n : i*n+i]
		s := x[i]
		for k, v := range row {
			s -= v * x[k]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := f.lu.Data[i*n : (i+1)*n]
		for k := i + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	return x
}

// SolveComplex is a convenience wrapper: factorize a and solve a·x = b.
func SolveComplex(a *CMatrix, b []complex128) ([]complex128, error) {
	f, err := NewCLU(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b), nil
}
