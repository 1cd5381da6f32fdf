package linalg

import "fmt"

// The element-wise loops of the block solves and of the propagation cloud's
// accumulations. Each has a Go loop, built on every platform, and on amd64
// an AVX2 kernel (kernels_amd64.s) that performs the same operations lane by
// lane: VMULPD then VSUBPD or VADDPD, never a fused multiply-add, and VDIVPD
// for a division, so every lane rounds exactly as the loop does. The kernel
// runs only when vectorBlock is set: the CPU gate ExpInto uses passed and an
// init-time self-check found every kernel equal to its loop on a fixed probe
// set. The loop is both the fallback and the self-check's reference.

// AXPY computes y ← y + alpha·x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: axpy length mismatch")
	}
	if vectorBlock {
		axpyVec(alpha, x, y)
		return
	}
	axpyLoop(alpha, x, y)
}

// AddSquares computes dst[s] ← dst[s] + x[s]·x[s] in place.
func AddSquares(dst, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("linalg: add squares lengths %d != %d", len(dst), len(x)))
	}
	if vectorBlock {
		addSquaresVec(dst, x)
		return
	}
	addSquaresLoop(dst, x)
}

// rowSolve sets dst[s] = (src[s] − c[0]·x[s] − c[cs]·x[xs+s] − … −
// c[(m−1)·cs]·x[(m−1)·xs+s]) / d for every s < len(dst): the subtractions in
// k-order, then one division. It is one row of a block triangular solve,
// with c the row (or column) of the factor and x the rows already solved.
// dst may be src itself; x must not overlap dst.
func rowSolve(dst, src, c []float64, cs int, x []float64, xs, m int, d float64) {
	if len(src) != len(dst) || m < 0 || m > 0 && (cs < 0 || xs < 0 ||
		(m-1)*cs >= len(c) || (m-1)*xs+len(dst) > len(x)) {
		panic(fmt.Sprintf("linalg: row solve of %d lanes over %d terms out of range", len(dst), m))
	}
	if vectorBlock {
		rowSolveVec(dst, src, c, cs, x, xs, m, d)
		return
	}
	rowSolveLoop(dst, src, c, cs, x, xs, m, d)
}

func axpyLoop(alpha float64, x, y []float64) {
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

func addSquaresLoop(dst, x []float64) {
	for s, v := range x {
		dst[s] += v * v
	}
}

func rowSolveLoop(dst, src, c []float64, cs int, x []float64, xs, m int, d float64) {
	copy(dst, src)
	for k := 0; k < m; k++ {
		v := c[k*cs]
		xk := x[k*xs:][:len(dst)]
		for s := range dst {
			dst[s] -= v * xk[s]
		}
	}
	for s := range dst {
		dst[s] /= d
	}
}
