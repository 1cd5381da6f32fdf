package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds A = BᵀB + n·I, which is SPD with good conditioning.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := randomMatrix(rng, n, n)
	a := b.T().Mul(b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		llt := c.L.Mul(c.L.T())
		for i := range a.Data {
			if !almostEq(llt.Data[i], a.Data[i], 1e-10) {
				return false
			}
		}
		return c.Jitter == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		got := c.SolveVec(b)
		for i := range x {
			if !almostEq(got[i], x[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// Diagonal matrix: log det is the sum of log diagonal entries.
	a := NewMatrixFrom(3, 3, []float64{
		2, 0, 0,
		0, 3, 0,
		0, 0, 4,
	})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(2) + math.Log(3) + math.Log(4)
	if !almostEq(c.LogDet(), want, 1e-12) {
		t.Fatalf("LogDet = %v, want %v", c.LogDet(), want)
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPD(rng, 5)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := NewMatrix(5, 5)
	c.InverseInto(inv)
	prod := a.Mul(inv)
	id := Identity(5)
	for i := range prod.Data {
		if !almostEq(prod.Data[i], id.Data[i], 1e-8) {
			t.Fatalf("A·A⁻¹ != I: %v", prod.Data)
		}
	}
}

func TestCholeskyJitterRescuesSemidefinite(t *testing.T) {
	// Rank-1 PSD matrix: plain Cholesky fails, jitter should rescue it.
	v := []float64{1, 2, 3}
	a := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, v[i]*v[j])
		}
	}
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("jitter failed to rescue PSD matrix: %v", err)
	}
	if c.Jitter == 0 {
		t.Fatal("expected nonzero jitter for rank-deficient matrix")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{
		1, 2,
		2, 1, // eigenvalues 3 and −1
	})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected failure on an indefinite matrix")
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	if _, err := NewCholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestForwardBackwardConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 6)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	// SolveVec must equal BackwardSolveInto(ForwardSolveInto(b)).
	x1 := c.SolveVec(b)
	x2 := make([]float64, len(b))
	c.ForwardSolveInto(b, x2)
	c.BackwardSolveInto(x2, x2)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatal("SolveVec disagrees with composed solves")
		}
	}
}

// unblockedCholesky is the reference column-by-column algorithm the blocked
// factorization must reproduce bit-identically.
func unblockedCholesky(a *Matrix) (*Matrix, bool) {
	n := a.Rows
	L := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lj := L.Data[j*n : j*n+j]
		for _, v := range lj {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, false
		}
		ljj := math.Sqrt(d)
		L.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := L.Data[i*n : i*n+j]
			for k, v := range lj {
				s -= li[k] * v
			}
			L.Set(i, j, s/ljj)
		}
	}
	return L, true
}

func TestBlockedCholeskyBitIdenticalToUnblocked(t *testing.T) {
	for _, n := range []int{1, 7, cholBlock - 1, cholBlock, cholBlock + 1, 3*cholBlock + 5} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randomSPD(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ref, ok := unblockedCholesky(a)
		if !ok {
			t.Fatalf("n=%d: reference factorization failed", n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if got, want := c.L.At(i, j), ref.At(i, j); got != want {
					t.Fatalf("n=%d: L[%d,%d] = %v, reference %v", n, i, j, got, want)
				}
			}
		}
	}
}

func TestCholeskyReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a1 := randomSPD(rng, 20)
	a2 := randomSPD(rng, 20)
	fresh1, err := NewCholesky(a1)
	if err != nil {
		t.Fatal(err)
	}
	fresh2, err := NewCholesky(a2)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse fresh1's buffers for a2: result must match a fresh factorization
	// and must reuse the same backing storage.
	reused, err := NewCholeskyReuse(a2, fresh1)
	if err != nil {
		t.Fatal(err)
	}
	if &reused.L.Data[0] != &fresh1.L.Data[0] {
		t.Fatal("NewCholeskyReuse did not reuse the existing factor storage")
	}
	for i := range fresh2.L.Data {
		if reused.L.Data[i] != fresh2.L.Data[i] {
			t.Fatal("reused factorization differs from fresh factorization")
		}
	}
	// Dimension mismatch must fall back to fresh allocation.
	small := randomSPD(rng, 4)
	c2, err := NewCholeskyReuse(small, fresh1)
	if err != nil {
		t.Fatal(err)
	}
	if c2.N != 4 {
		t.Fatalf("reuse with mismatched size returned N=%d", c2.N)
	}
}

func TestSolveIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 10
	a := randomSPD(rng, n)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := c.SolveVec(b)
	got := make([]float64, n)
	c.SolveVecInto(b, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("SolveVecInto disagrees with SolveVec")
		}
	}
	// Aliased in-place solve.
	inPlace := append([]float64(nil), b...)
	c.SolveVecInto(inPlace, inPlace)
	for i := range want {
		if inPlace[i] != want[i] {
			t.Fatal("aliased SolveVecInto disagrees with SolveVec")
		}
	}
}
