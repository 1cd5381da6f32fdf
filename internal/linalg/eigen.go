package linalg

import (
	"fmt"
	"math"
	"sort"
)

// SymEigen computes all eigenvalues (ascending) and the corresponding
// orthonormal eigenvectors of the symmetric matrix a using the cyclic Jacobi
// method. It is a reference implementation: tests check the factorizations
// against it, and no production path calls it. Eigenvectors are returned as
// the columns of V.
func SymEigen(a *Matrix) (vals []float64, V *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("linalg: eigen of non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	A := a.Clone()
	V = Identity(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += A.At(i, j) * A.At(i, j)
			}
		}
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := A.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := A.At(p, p), A.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(A, V, p, q, c, s)
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = A.At(i, i)
	}
	// Sort ascending, permuting eigenvector columns alongside.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] < vals[idx[j]] })
	sortedVals := make([]float64, n)
	sortedV := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedV.Set(r, newCol, V.At(r, oldCol))
		}
	}
	return sortedVals, sortedV, nil
}

// rotate applies the Jacobi rotation J(p,q,θ) to A (two-sided) and
// accumulates it into V (one-sided).
func rotate(A, V *Matrix, p, q int, c, s float64) {
	n := A.Rows
	for k := 0; k < n; k++ {
		akp, akq := A.At(k, p), A.At(k, q)
		A.Set(k, p, c*akp-s*akq)
		A.Set(k, q, s*akp+c*akq)
	}
	for k := 0; k < n; k++ {
		apk, aqk := A.At(p, k), A.At(q, k)
		A.Set(p, k, c*apk-s*aqk)
		A.Set(q, k, s*apk+c*aqk)
	}
	for k := 0; k < n; k++ {
		vkp, vkq := V.At(k, p), V.At(k, q)
		V.Set(k, p, c*vkp-s*vkq)
		V.Set(k, q, s*vkp+c*vkq)
	}
}
