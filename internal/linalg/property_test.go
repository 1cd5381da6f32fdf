package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Cholesky and LU must agree on SPD systems.
func TestCholeskyLUConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		xc := ch.SolveVec(b)
		var lu LU
		if err := lu.Factorize(a); err != nil {
			return false
		}
		xl := make([]float64, n)
		lu.SolveVecInto(b, xl)
		for i := range xc {
			if !almostEq(xc[i], xl[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// log|A| from Cholesky must equal the sum of log-eigenvalues on SPD input.
func TestLogDetConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		vals, _, err := SymEigen(a)
		if err != nil {
			return false
		}
		logDet := 0.0
		for _, v := range vals {
			if v <= 0 {
				return false // SPD eigenvalues must be positive
			}
			logDet += math.Log(v)
		}
		return almostEq(ch.LogDet(), logDet, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Eigenvalue sum equals trace; eigenvalue product equals determinant.
func TestEigenTraceDetInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(5)
		a := randomSPD(rng, n)
		vals, _, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		sum, prod := 0.0, 1.0
		for _, v := range vals {
			sum += v
			prod *= v
		}
		trace := 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		if !almostEq(sum, trace, 1e-8) {
			t.Fatalf("eigen sum %v != trace %v", sum, trace)
		}
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		if det := math.Exp(ch.LogDet()); !almostEq(prod, det, 1e-6) {
			t.Fatalf("eigen product %v != det %v", prod, det)
		}
	}
}

// Solving with the identity returns the RHS unchanged.
func TestSolveIdentity(t *testing.T) {
	f := func(b0, b1, b2 float64) bool {
		if math.IsNaN(b0) || math.IsInf(b0, 0) ||
			math.IsNaN(b1) || math.IsInf(b1, 0) ||
			math.IsNaN(b2) || math.IsInf(b2, 0) {
			return true
		}
		b := []float64{b0, b1, b2}
		var lu LU
		if err := lu.Factorize(Identity(3)); err != nil {
			return false
		}
		x := make([]float64, 3)
		lu.SolveVecInto(b, x)
		for i := range b {
			if x[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
