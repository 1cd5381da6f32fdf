//go:build amd64 && !purego

package linalg

import "math"

// expBlocks computes math.Exp over src[0:n] into dst[0:n], n a multiple of
// 4, four elements per step. It stops before the first block of four with a
// reduced exponent outside [−1022, 1023], leaving that block unwritten, and
// returns the number of elements it wrote.
//
//go:noescape
func expBlocks(dst, src *float64, n int) int

// cpuid executes CPUID with EAX=eaxArg and ECX=ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV with ECX=0 and returns XCR0.
func xgetbv() (eax, edx uint32)

// vectorExp reports whether ExpInto takes the vector path: the CPU and OS
// support AVX2 and FMA, and the vector kernel agrees with math.Exp on the
// probe set.
var vectorExp = hasAVX2FMA() && vectorExpAgrees()

// hasAVX2FMA reports whether the CPU has AVX, AVX2 and FMA and the OS saves
// the YMM state (OSXSAVE set, XCR0 bits 1 and 2).
func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// expProbes returns the self-check inputs: 256 arguments spread over the
// normal-result range and 256 shaped like SE kernel arguments, 2·log σ −
// ½·q, all inside expBlocks' range.
func expProbes() []float64 {
	p := make([]float64, 512)
	const phi = 0.6180339887498949 // golden-ratio steps cover [0, 1) evenly
	u := 0.0
	for i := range p {
		u += phi
		u -= math.Floor(u)
		if i < 256 {
			p[i] = -700 + 1400*u
		} else {
			p[i] = 2 - 40*u*u
		}
	}
	return p
}

// vectorExpAgrees runs expBlocks on the probe set and reports whether every
// result equals math.Exp's bit for bit.
func vectorExpAgrees() bool {
	src := expProbes()
	dst := make([]float64, len(src))
	if expBlocks(&dst[0], &src[0], len(src)) != len(src) {
		return false
	}
	for i, x := range src {
		if math.Float64bits(dst[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

// expVector writes src into dst on the vector path, recomputing a block with
// math.Exp where expBlocks stops, and returns the number of leading elements
// written: all of them, or none when the path is off. A tail of fewer than
// four runs as one block padded with zeros, of which only the live lanes are
// copied back; the lanes are independent, so the padding changes no result.
func expVector(dst, src []float64) int {
	if !vectorExp || len(src) == 0 {
		return 0
	}
	n := len(src) &^ 3
	i := 0
	for i < n {
		i += expBlocks(&dst[i], &src[i], n-i)
		if i < n {
			for j := i; j < i+4; j++ {
				dst[j] = math.Exp(src[j])
			}
			i += 4
		}
	}
	if n < len(src) {
		var tail [4]float64
		live := copy(tail[:], src[n:])
		if expBlocks(&tail[0], &tail[0], 4) == 4 {
			copy(dst[n:], tail[:live])
		} else {
			for j := n; j < len(src); j++ {
				dst[j] = math.Exp(src[j])
			}
		}
	}
	return len(src)
}
