package linalg

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomCMatrix(rng *rand.Rand, n int) *CMatrix {
	m := NewCMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	// Diagonal dominance for guaranteed nonsingularity.
	for i := 0; i < n; i++ {
		m.Add(i, i, complex(float64(2*n), 0))
	}
	return m
}

func TestCLUSolveRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomCMatrix(rng, n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := make([]complex128, n)
		for i := range b {
			for j, xj := range x {
				b[i] += a.At(i, j) * xj
			}
		}
		got, err := SolveComplex(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(got[i]-x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCLUPurelyImaginary(t *testing.T) {
	// [[ j, 0], [0, -j]]·x = [j, j] → x = [1, -1].
	a := NewCMatrix(2, 2)
	a.Set(0, 0, complex(0, 1))
	a.Set(1, 1, complex(0, -1))
	x, err := SolveComplex(a, []complex128{complex(0, 1), complex(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-1) > 1e-14 || cmplx.Abs(x[1]+1) > 1e-14 {
		t.Fatalf("x = %v", x)
	}
}

func TestCLURequiresPivoting(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	x, err := SolveComplex(a, []complex128{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-7) > 1e-14 || cmplx.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("x = %v", x)
	}
}

func TestCLUSingular(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := NewCLU(a); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestCLUNonSquare(t *testing.T) {
	if _, err := NewCLU(NewCMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestCLUDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomCMatrix(rng, 3)
	orig := a.Clone()
	if _, err := NewCLU(a); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatal("NewCLU modified its input")
		}
	}
}
