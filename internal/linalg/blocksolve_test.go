package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomBlock returns an n×S row-major block of standard normals.
func randomBlock(rng *rand.Rand, n, S int) []float64 {
	b := make([]float64, n*S)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// checkBlockSolve solves b as a block, into fresh storage and in place, and
// requires every column to equal ForwardSolveInto on that column bit for bit.
func checkBlockSolve(t *testing.T, c *Cholesky, b []float64, S int) {
	t.Helper()
	n := c.N
	y := make([]float64, n*S)
	c.ForwardSolveBlockInto(b, y, S)
	inPlace := append([]float64(nil), b...)
	c.ForwardSolveBlockInto(inPlace, inPlace, S)
	col, want := make([]float64, n), make([]float64, n)
	for s := 0; s < S; s++ {
		for i := 0; i < n; i++ {
			col[i] = b[i*S+s]
		}
		c.ForwardSolveInto(col, want)
		for i := 0; i < n; i++ {
			if math.Float64bits(y[i*S+s]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d S=%d: column %d row %d: block %v, single %v", n, S, s, i, y[i*S+s], want[i])
			}
			if math.Float64bits(inPlace[i*S+s]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d S=%d: in-place column %d row %d: block %v, single %v", n, S, s, i, inPlace[i*S+s], want[i])
			}
		}
	}
}

func TestForwardSolveBlockMatchesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 2, 7, 33} {
		c, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		for _, S := range []int{1, 3, 30} {
			checkBlockSolve(t, c, randomBlock(rng, n, S), S)
		}
	}
}

// TestForwardSolveBlockRespectsStride runs the block solve on factors whose
// row stride exceeds their dimension: one grown by AppendRow, and one built
// into wide storage, which must also match a tight factor of the same matrix.
func TestForwardSolveBlockRespectsStride(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const n0, n = 5, 19
	a := randomSPD(rng, n)
	grown := growFactor(t, a, n0)
	for _, S := range []int{1, 3, 30} {
		checkBlockSolve(t, grown, randomBlock(rng, n, S), S)
	}

	tight, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewCholeskyReuse(a, &Cholesky{L: NewMatrix(40, 40)})
	if err != nil {
		t.Fatal(err)
	}
	const S = 7
	b := randomBlock(rng, n, S)
	yw, yt := make([]float64, n*S), make([]float64, n*S)
	wide.ForwardSolveBlockInto(b, yw, S)
	tight.ForwardSolveBlockInto(b, yt, S)
	if !SameBits(yw, yt) {
		t.Fatal("ForwardSolveBlockInto differs between wide and tight storage")
	}
}

func TestForwardSolveBlockPanicsOnLengthMismatch(t *testing.T) {
	c, err := NewCholesky(randomSPD(rand.New(rand.NewSource(79)), 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		nb, ny, S int
	}{
		{"short b", 11, 12, 3},
		{"long y", 12, 13, 3},
		{"wrong S", 12, 12, 2},
		{"negative S", 0, 0, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected a panic")
				}
			}()
			c.ForwardSolveBlockInto(make([]float64, tc.nb), make([]float64, tc.ny), tc.S)
		})
	}
}

// growFactor factorizes the leading n0×n0 block of a and grows the factor to
// a's full dimension by AppendRow, leaving its row stride above N.
func growFactor(t *testing.T, a *Matrix, n0 int) *Cholesky {
	t.Helper()
	lead := NewMatrix(n0, n0)
	for i := 0; i < n0; i++ {
		for j := 0; j < n0; j++ {
			lead.Set(i, j, a.At(i, j))
		}
	}
	grown, err := NewCholesky(lead)
	if err != nil {
		t.Fatal(err)
	}
	for k := n0; k < a.Rows; k++ {
		if err := grown.AppendRow(a.Row(k)[:k], a.At(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	if grown.Cap() <= grown.N {
		t.Fatalf("grown factor has capacity %d for %d rows; want spare columns", grown.Cap(), grown.N)
	}
	return grown
}

// checkInverse requires every entry of InverseInto to equal SolveVecInto on
// the matching unit vector bit for bit, whatever dst held before.
func checkInverse(t *testing.T, c *Cholesky) {
	t.Helper()
	n := c.N
	inv := NewMatrix(n, n)
	for i := range inv.Data {
		inv.Data[i] = math.NaN()
	}
	c.InverseInto(inv)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		c.SolveVecInto(e, e)
		for i := 0; i < n; i++ {
			if math.Float64bits(inv.At(i, j)) != math.Float64bits(e[i]) {
				t.Fatalf("n=%d: inverse (%d, %d) = %v, column solve %v", n, i, j, inv.At(i, j), e[i])
			}
		}
	}
}

func TestInverseIntoMatchesColumnSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, n := range []int{1, 2, 7, 33, 65} {
		c, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		checkInverse(t, c)
	}
	const n0, n = 5, 19
	grown := growFactor(t, randomSPD(rng, n), n0)
	checkInverse(t, grown)
	for _, dims := range [][2]int{{n - 1, n - 1}, {n, n + 1}, {n + 1, n}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("InverseInto into %d×%d for N=%d: expected a panic", dims[0], dims[1], n)
				}
			}()
			grown.InverseInto(NewMatrix(dims[0], dims[1]))
		}()
	}
}

// BenchmarkForwardSolveBlock solves a 30-node cloud against a 40-row factor,
// the shape of one fused prediction on a mid-run model.
func BenchmarkForwardSolveBlock(b *testing.B) {
	const n, S = 40, 30
	rng := rand.New(rand.NewSource(83))
	c, err := NewCholesky(randomSPD(rng, n))
	if err != nil {
		b.Fatal(err)
	}
	rhs, y := randomBlock(rng, n, S), make([]float64, n*S)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ForwardSolveBlockInto(rhs, y, S)
	}
}

// BenchmarkInverseInto inverts a 64-row factor, the precision matrix of one
// NLML gradient on a large training set.
func BenchmarkInverseInto(b *testing.B) {
	const n = 64
	c, err := NewCholesky(randomSPD(rand.New(rand.NewSource(97)), n))
	if err != nil {
		b.Fatal(err)
	}
	inv := NewMatrix(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InverseInto(inv)
	}
}
