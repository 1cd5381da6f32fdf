//go:build amd64 && !purego

package linalg

func hasVectorCPU() bool { return hasAVX2FMA() }

// kernelAgrees runs the self-check's comparison without consulting
// vectorExp: whether the vector kernel matches this process's math.Exp.
func kernelAgrees() bool { return hasAVX2FMA() && vectorExpAgrees() }
