//go:build amd64 && !purego

package linalg

import "math"

// axpyVec, addSquaresVec, rowSolveVec and addScaledRowsVec are the AVX2
// kernels of axpyLoop, addSquaresLoop, rowSolveLoop and addScaledRowsLoop
// (kernels_amd64.s). The callers check every length first.

//go:noescape
func axpyVec(alpha float64, x, y []float64)

//go:noescape
func addSquaresVec(dst, x []float64)

//go:noescape
func rowSolveVec(dst, src, c []float64, cs int, x []float64, xs, m int, d float64)

//go:noescape
func addScaledRowsVec(dst, c, x []float64, xs int)

// vectorBlock reports whether AXPY, AddSquares, AddScaledRows and the block
// solves take the AVX2 kernels: the CPU and OS support AVX2 and FMA (the gate
// ExpInto uses; the kernels themselves need only AVX), and every kernel
// agrees with its Go loop on the probe set.
var vectorBlock = hasAVX2FMA() && blockKernelsAgree()

// blockKernelsAgree runs each kernel and its Go loop on a fixed probe set
// and reports whether every result is the same bit for bit. The shapes take
// every stage of the kernels: 16-lane blocks, 4-lane chunks, a scalar tail
// and no terms at all. A toolchain that starts fusing a loop's
// multiply-subtract into one rounding fails it and keeps the loops.
func blockKernelsAgree() bool {
	p := make([]float64, 512)
	const phi = 0.6180339887498949 // golden-ratio steps cover [0, 1) evenly
	u := 0.0
	for i := range p {
		u += phi
		u -= math.Floor(u)
		p[i] = math.Ldexp(2*u-1, i%5-2)
	}
	got, want := make([]float64, 40), make([]float64, 40)
	for _, S := range []int{1, 3, 4, 7, 16, 21, 37} {
		for _, m := range []int{0, 1, 7} {
			rowSolveLoop(want[:S], p[:S], p[40:], 2, p[100:], S+1, m, p[m+50])
			rowSolveVec(got[:S], p[:S], p[40:], 2, p[100:], S+1, m, p[m+50])
			if !SameBits(got[:S], want[:S]) {
				return false
			}
			copy(want, p[300:])
			copy(got, p[300:])
			addScaledRowsLoop(want[:S], p[40:40+m], p[100:], S+1)
			addScaledRowsVec(got[:S], p[40:40+m], p[100:], S+1)
			if !SameBits(got[:S], want[:S]) {
				return false
			}
		}
		copy(want, p[60:])
		copy(got, p[60:])
		axpyLoop(p[S], p[400:400+S], want[:S])
		axpyVec(p[S], p[400:400+S], got[:S])
		addSquaresLoop(want[:S], p[450:450+S])
		addSquaresVec(got[:S], p[450:450+S])
		if !SameBits(got[:S], want[:S]) {
			return false
		}
	}
	return true
}
