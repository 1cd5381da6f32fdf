package linalg

import (
	"fmt"
	"math"
)

// ExpInto sets dst[i] = math.Exp(src[i]) for every i, bit for bit. dst may
// be src itself; other overlaps are not supported. It panics if the lengths
// differ.
//
// On amd64 CPUs with AVX2 and FMA it computes four elements per instruction
// stream with the same operations, constants and roundings as math.Exp's own
// FMA assembly (see exp_amd64.s). A block of four whose reduced exponent
// leaves the normal range, which covers NaN, ±Inf, overflow and subnormal or
// zero results, is recomputed element by element with math.Exp, as is the
// tail of fewer than four. The vector path is only used when an init-time
// self-check agrees with math.Exp on a fixed probe set, so a math.Exp that
// takes a different sequence (GODEBUG=cpu.fma=off, or another toolchain)
// turns it off rather than changing any result. Every other platform, and
// the purego build tag, runs the scalar loop.
func ExpInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: ExpInto lengths %d != %d", len(dst), len(src)))
	}
	for i := expVector(dst, src); i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}
