package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomMatrix(rng, n, n)
		// Diagonal dominance guarantees nonsingularity.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+1)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		var lu LU
		if err := lu.Factorize(a); err != nil {
			return false
		}
		got := make([]float64, n)
		lu.SolveVecInto(b, got)
		for i := range x {
			if !almostEq(got[i], x[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLURequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := NewMatrixFrom(2, 2, []float64{
		0, 1,
		1, 0,
	})
	var lu LU
	if err := lu.Factorize(a); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	lu.SolveVecInto([]float64{3, 7}, x)
	if !almostEq(x[0], 7, 1e-14) || !almostEq(x[1], 3, 1e-14) {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{
		1, 2,
		2, 4,
	})
	var lu LU
	if err := lu.Factorize(a); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestLUNonSquare(t *testing.T) {
	var lu LU
	if err := lu.Factorize(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestLUDoesNotModifyInput(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	orig := a.Clone()
	var lu LU
	if err := lu.Factorize(a); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatal("Factorize modified its input")
		}
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := NewMatrixFrom(3, 3, []float64{
		5, 0, 0,
		0, 1, 0,
		0, 0, 3,
	})
	vals, _, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5}
	for i := range want {
		if !almostEq(vals[i], want[i], 1e-10) {
			t.Fatalf("eigenvalues = %v, want %v", vals, want)
		}
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomSPD(rng, 5)
	vals, V, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	// A ≈ V·diag(vals)·Vᵀ
	D := NewMatrix(5, 5)
	for i, v := range vals {
		D.Set(i, i, v)
	}
	recon := V.Mul(D).Mul(V.T())
	for i := range a.Data {
		if !almostEq(recon.Data[i], a.Data[i], 1e-8) {
			t.Fatal("eigendecomposition does not reconstruct A")
		}
	}
	// Eigenvalues of an SPD matrix must be positive.
	for _, v := range vals {
		if v <= 0 {
			t.Fatalf("non-positive eigenvalue %v for SPD matrix", v)
		}
	}
}

// TestLUFactorizeReuse: refactoring into one LU gives a fresh LU's solutions
// bit for bit, across sizes and after a singular matrix, and the
// same-size refactor and solve allocate nothing.
func TestLUFactorizeReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var f LU
	for trial, n := range []int{4, 4, 7, 3, 3} {
		a := randomMatrix(rng, n, n)
		if trial == 3 {
			if err := f.Factorize(NewMatrix(n, n)); err != ErrSingular {
				t.Fatalf("singular matrix: err = %v", err)
			}
		}
		if err := f.Factorize(a); err != nil {
			t.Fatal(err)
		}
		var ref LU
		if err := ref.Factorize(a); err != nil {
			t.Fatal(err)
		}
		b := randomMatrix(rng, 1, n).Data
		want := make([]float64, n)
		ref.SolveVecInto(b, want)
		got := make([]float64, n)
		f.SolveVecInto(b, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: x[%d] = %v, a fresh LU gives %v", trial, i, got[i], want[i])
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			_ = f.Factorize(a)
			f.SolveVecInto(b, got)
		})
		if allocs != 0 {
			t.Fatalf("same-size Factorize+SolveVecInto allocates %.0f objects", allocs)
		}
	}
}
