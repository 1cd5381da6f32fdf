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
		got, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
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
	x, err := SolveLinear(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 7, 1e-14) || !almostEq(x[1], 3, 1e-14) {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{
		1, 2,
		2, 4,
	})
	if _, err := NewLU(a); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestLUDet(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{
		3, 1,
		4, 2,
	})
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), 2, 1e-12) {
		t.Fatalf("Det = %v, want 2", f.Det())
	}
	// Row-swapped matrix should negate the determinant.
	b := NewMatrixFrom(2, 2, []float64{
		4, 2,
		3, 1,
	})
	g, err := NewLU(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(g.Det(), -2, 1e-12) {
		t.Fatalf("Det = %v, want -2", g.Det())
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := NewLU(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestLUDoesNotModifyInput(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	orig := a.Clone()
	if _, err := NewLU(a); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatal("NewLU modified its input")
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

func TestConditionNumber(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{
		10, 0,
		0, 2,
	})
	k, err := ConditionNumber(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(k, 5, 1e-9) {
		t.Fatalf("cond = %v, want 5", k)
	}
	sing := NewMatrixFrom(2, 2, []float64{1, 1, 1, 1})
	k, err = ConditionNumber(sing)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(k, 1) {
		t.Fatalf("cond of singular = %v, want +Inf", k)
	}
}

// TestLUFactorizeReuse: refactoring into one LU gives NewLU's factors and
// solutions bit for bit, across sizes and after a singular matrix, and the
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
		ref, err := NewLU(a)
		if err != nil {
			t.Fatal(err)
		}
		b := randomMatrix(rng, 1, n).Data
		want := ref.SolveVec(b)
		got := make([]float64, n)
		f.SolveVecInto(b, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: x[%d] = %v, NewLU gives %v", trial, i, got[i], want[i])
			}
		}
		if f.Det() != ref.Det() {
			t.Fatalf("trial %d: det %v != %v", trial, f.Det(), ref.Det())
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
