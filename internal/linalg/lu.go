package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when an LU factorization encounters a pivot that is
// exactly zero (the matrix is singular to working precision).
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds a row-pivoted LU factorization P·A = L·U packed into a single
// matrix (unit lower triangle implicit). It is the general-purpose solver used
// by the circuit simulator, where matrices are square but not symmetric.
type LU struct {
	lu    *Matrix
	pivot []int
}

// Factorize makes f the factorization of the square matrix a, reusing f's
// storage when a has the size of the previous factorization; a is not
// modified. Iterative solvers that refactor a same-sized matrix many times
// use it to allocate nothing per factorization. After an error f holds no
// usable factorization.
func (f *LU) Factorize(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: LU of non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	if f.lu == nil || f.lu.Rows != n {
		f.lu = NewMatrix(n, n)
		f.pivot = make([]int, n)
	}
	lu, pivot := f.lu, f.pivot
	copy(lu.Data, a.Data)
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		mx := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > mx {
				mx, p = v, i
			}
		}
		if mx == 0 {
			return ErrSingular
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
	return nil
}

// SolveVecInto solves A·x = b into x, which must have length n and may be b
// itself.
func (f *LU) SolveVecInto(b, x []float64) {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: LU solve lengths %d, %d != %d", len(b), len(x), n))
	}
	copy(x, b)
	// Apply permutation.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.Data[i*n : i*n+i]
		s := x[i]
		for k, v := range row {
			s -= v * x[k]
		}
		x[i] = s
	}
	// Backward substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := f.lu.Data[i*n : (i+1)*n]
		for k := i + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
}
