package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %d×%d, want 3×4", m.Rows, m.Cols)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("new matrix not zeroed: %v", m.Data)
		}
	}
}

func TestNewMatrixFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewMatrixFrom(2, 2, []float64{1, 2, 3})
}

func TestAtSetAdd(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	m.Add(1, 2, 2.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I[%d][%d] = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %d×%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		m := randomMatrix(rng, r, c)
		tt := m.T().T()
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMulAgainstHand(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrixFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := a.Mul(b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if got.Data[i] != w {
			t.Fatalf("Mul = %v, want %v", got.Data, want)
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 4, 4)
	got := m.Mul(Identity(4))
	for i := range m.Data {
		if !almostEq(got.Data[i], m.Data[i], 1e-15) {
			t.Fatalf("A·I != A at %d", i)
		}
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(5), 1+rng.Intn(5)
		m := randomMatrix(rng, r, c)
		v := make([]float64, c)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		got := m.MulVec(v)
		vm := NewMatrixFrom(c, 1, append([]float64(nil), v...))
		want := m.Mul(vm)
		for i := range got {
			if !almostEq(got[i], want.Data[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewMatrixFrom(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestDotAndNorms(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2([]float64{0, 0}); got != 0 {
		t.Fatalf("Norm2(0) = %v", got)
	}
	// Overflow-safety: naive sum of squares would overflow here.
	big := 1e200
	if got := Norm2([]float64{big, big}); math.IsInf(got, 0) {
		t.Fatalf("Norm2 overflowed: %v", got)
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	if got := SubVec(b, a); got[0] != 2 || got[1] != 3 {
		t.Fatalf("SubVec = %v", got)
	}
	y := []float64{1, 1}
	AXPY(3, a, y)
	if y[0] != 4 || y[1] != 7 {
		t.Fatalf("AXPY = %v", y)
	}
}

func TestRowIsView(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	r := m.Row(1)
	r[0] = 42
	if m.At(1, 0) != 42 {
		t.Fatal("Row should alias the matrix data")
	}
}
