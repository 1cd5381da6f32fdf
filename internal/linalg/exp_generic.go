//go:build !amd64 || purego

package linalg

// vectorExp reports whether ExpInto takes the vector path; never here.
var vectorExp = false

// expVector leaves every element to ExpInto's scalar loop.
func expVector(dst, src []float64) int { return 0 }
