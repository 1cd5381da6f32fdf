//go:build !amd64 || purego

package linalg

func hasVectorCPU() bool { return false }

func kernelAgrees() bool { return false }
