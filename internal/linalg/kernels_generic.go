//go:build !amd64 || purego

package linalg

// vectorBlock reports whether AXPY, AddSquares, AddScaledRows and the block
// solves take the vector kernels; never here, so the kernels below are never
// called.
var vectorBlock = false

func axpyVec(alpha float64, x, y []float64) { panic("linalg: no vector kernels") }

func addSquaresVec(dst, x []float64) { panic("linalg: no vector kernels") }

func rowSolveVec(dst, src, c []float64, cs int, x []float64, xs, m int, d float64) {
	panic("linalg: no vector kernels")
}

func addScaledRowsVec(dst, c, x []float64, xs int) { panic("linalg: no vector kernels") }
